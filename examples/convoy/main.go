// Convoy: thesis Chapter 5 — inter-vehicle energy transfers. A chain of
// sensor relays along a pipeline must funnel energy to an inspection site at
// the far end. Without transfers, only vehicles within travel range can
// contribute and the required per-vehicle charge scales as sqrt(d). With
// transfers and unbounded tanks, one vehicle sweeps the line, consolidates
// everyone's energy, and delivers it — needing only about 2 + d/N per
// vehicle (Section 5.2.1), under either transfer-accounting model.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	cmvrp "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	const totalDemand = 2500
	fmt.Fprintln(out, "inspection site demands", totalDemand, "units at the end of an N-relay pipeline")
	fmt.Fprintln(out)

	// No-transfer reference: the thesis' omega* for the same concentration.
	dem, err := cmvrp.PointDemand(1, cmvrp.P(0), totalDemand)
	if err != nil {
		return err
	}
	omega, err := cmvrp.ExactLowerBound(dem)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "no transfers: every vehicle needs W = %.1f (omega*, Thm 1.4.1 in 1-D)\n\n", omega)

	fmt.Fprintln(out, "   N    fixed-cost W   variable-cost W   avg demand   gain vs no-transfer")
	for _, n := range []int{128, 512, 2048} {
		demands := make([]int64, n)
		demands[n-1] = totalDemand
		var ws [2]float64
		for i, acct := range []cmvrp.ConvoyParams{
			{Demands: demands, Accounting: cmvrp.FixedCost, A1: 1},
			{Demands: demands, Accounting: cmvrp.VariableCost, A2: 0.01},
		} {
			res, err := cmvrp.Convoy(acct)
			if err != nil {
				return err
			}
			if res.Slack < -1e-6 {
				return fmt.Errorf("convoy infeasible at N=%d", n)
			}
			ws[i] = res.W
		}
		avg := float64(totalDemand) / float64(n)
		fmt.Fprintf(out, "%5d   %12.2f   %15.2f   %10.2f   %12.1fx\n",
			n, ws[0], ws[1], avg, omega/ws[0])
	}

	fmt.Fprintln(out, "\nwith tanks capped at the initial charge (C = W), Theorem 5.1.1's decay")
	dem2, err := cmvrp.PointDemand(2, cmvrp.P(0, 0), totalDemand)
	if err != nil {
		return err
	}
	bound, err := cmvrp.TransferLowerBound(dem2)
	if err != nil {
		return err
	}
	omega2, err := cmvrp.ExactLowerBound(dem2)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "bound keeps Wtrans = %.2f — same order as the no-transfer omega* = %.2f:\n", bound, omega2)
	fmt.Fprintln(out, "transfers alone buy at most a constant; the convoy's win comes from big tanks.")
	return nil
}
