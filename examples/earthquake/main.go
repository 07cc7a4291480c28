// Earthquake: thesis Example 3 (Fig 2.1c) plus Chapter 4 — all demand
// erupts at a single point (an earthquake site every sensor must converge
// on), and a blast radius of broken vehicles separates the site from the
// healthy fleet. The example shows the cube-root capacity law of the
// healthy case and the Figure 4.1 breakdown gap: once vehicles can break,
// the LP lower bound stops being achievable and the true requirement grows
// quadratically.
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"os"

	cmvrp "repro"
	"repro/internal/broken"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	arena, err := cmvrp.NewArena(64, 64)
	if err != nil {
		return err
	}
	// Healthy case: capacity follows the cube-root law W3 ~ (d/4)^(1/3).
	fmt.Fprintln(out, "healthy fleet (Example 3):")
	fmt.Fprintln(out, "  jobs    W3=(d/4)^(1/3)   omega_c   schedule W")
	for _, d := range []int64{64, 512, 4096} {
		dem, err := cmvrp.PointDemand(2, cmvrp.P(32, 32), d)
		if err != nil {
			return err
		}
		sol, err := cmvrp.SolveOffline(dem, arena)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  %5d   %14.2f   %7.2f   %10.2f\n",
			d, math.Cbrt(float64(d)/4), sol.OmegaC, sol.Schedule.W)
	}

	// Broken fleet: the Figure 4.1 scenario. The LP bound stays 2*r1 while
	// the lone healthy vehicle must shuttle, needing ~4*r1^2.
	fmt.Fprintln(out, "\nbroken fleet (Figure 4.1): lone healthy vehicle between two sites")
	fmt.Fprintln(out, "  r1    LP bound (Thm 4.1.1)   true requirement   gap")
	for _, r1 := range []int{4, 8, 16} {
		f, err := broken.NewFig41(r1, 8*r1)
		if err != nil {
			return err
		}
		lp, err := f.LPBound()
		if err != nil {
			return err
		}
		truth := f.TrueRequirement()
		fmt.Fprintf(out, "  %2d    %20.1f   %16.1f   %4.1fx\n", r1, lp, truth, truth/lp)
	}
	fmt.Fprintln(out, "\nthe gap grows ~linearly in r1: arrival order matters once vehicles break (Ch 4)")
	return nil
}
