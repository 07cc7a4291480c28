// Smartdust: the thesis' motivating scenario (Section 1.2). A field of
// mobile micro-sensors monitors an area; sensing events arrive in localized
// bursts (clusters), and the network must keep serving them as individual
// sensors drain — robustness through replacement, the property the thesis
// highlights over static Smart Dust. The example also injects failures:
// some sensors die outright and some fail to call for help, exercising the
// Section 3.2.5 monitoring ring.
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"os"

	cmvrp "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	arena, err := cmvrp.NewArena(24, 24)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(42))

	// Three event bursts (e.g. seismic activity at three sites).
	field := cmvrp.Box{Lo: cmvrp.P(6, 6), Hi: cmvrp.P(17, 17), Dim: 2}
	dem, err := cmvrp.ClusterDemand(rng, field, 3, 120, 2)
	if err != nil {
		return err
	}
	sol, err := cmvrp.SolveOffline(dem, arena)
	if err != nil {
		return err
	}
	seq, err := cmvrp.ToSequence(dem, cmvrp.OrderShuffled, rng)
	if err != nil {
		return err
	}
	w := (4*9 + 2) * math.Max(sol.OmegaC, 1)

	// Failure injection: two sensors die mid-run; every sensor in one burst
	// region is too damaged to initiate its own replacement search.
	dead := map[cmvrp.Point]int{
		cmvrp.P(8, 8):   seq.Len() / 3,
		cmvrp.P(14, 14): seq.Len() / 2,
	}
	failInit := map[cmvrp.Point]bool{}
	for x := 6; x <= 11; x++ {
		for y := 6; y <= 11; y++ {
			failInit[cmvrp.P(x, y)] = true
		}
	}

	res, err := cmvrp.RunOnline(seq, cmvrp.OnlineOptions{
		Arena:      arena,
		CubeSide:   sol.CubeSide,
		Capacity:   w,
		Seed:       42,
		Monitoring: true,
		Failure: &cmvrp.FailureModel{
			DeadBeforeArrival: dead,
			FailInitiate:      failInit,
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "sensor field %dx%d, %d events in 3 bursts\n", 24, 24, seq.Len())
	fmt.Fprintf(out, "capacity W = %.1f (omega_c %.2f, cube side %d)\n", w, sol.OmegaC, sol.CubeSide)
	fmt.Fprintf(out, "served %d/%d events despite 2 dead sensors and a no-initiate region\n",
		res.Served, seq.Len())
	fmt.Fprintf(out, "replacements: %d (of which %d monitor-initiated rescues)\n",
		res.Replacements, res.MonitorRescues)
	fmt.Fprintf(out, "protocol messages: %d\n", res.Messages)
	// With monitoring, only events arriving in the one-round detection gap
	// of a dead sensor can be lost.
	if len(res.Failures) > 2 {
		return fmt.Errorf("too many lost events: %v", res.Failures)
	}
	fmt.Fprintf(out, "lost events (dead-sensor detection gap): %d\n", len(res.Failures))
	return nil
}
