// Quickstart: the smallest end-to-end CMVRP session. Build a demand
// function, characterize the minimal vehicle capacity offline, construct a
// verified schedule, then replay the same jobs online through the
// decentralized Chapter 3 strategy.
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
	// A 32x32 arena: one vehicle at every cell.
	arena, err := cmvrp.NewArena(32, 32)
	if err != nil {
		return err
	}

	// 600 jobs scattered uniformly in the arena's interior.
	rng := rand.New(rand.NewSource(7))
	inner := cmvrp.Box{Lo: cmvrp.P(8, 8), Hi: cmvrp.P(23, 23), Dim: 2}
	dem, err := cmvrp.UniformDemand(rng, inner, 600)
	if err != nil {
		return err
	}

	// Offline: how much energy must each vehicle carry?
	sol, err := cmvrp.SolveOffline(dem, arena)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "omega_c lower-bound characterization: %.2f\n", sol.OmegaC)
	fmt.Fprintf(out, "Algorithm 1 estimate:                 %.2f\n", sol.Alg1W)
	fmt.Fprintf(out, "verified schedule capacity:           %.2f (%d vehicles active)\n",
		sol.Schedule.W, len(sol.Schedule.Plans))

	// Online: same jobs arriving one at a time, served by the distributed
	// strategy at the Theorem 1.4.2 capacity.
	seq, err := cmvrp.ToSequence(dem, cmvrp.OrderShuffled, rng)
	if err != nil {
		return err
	}
	w := (4*9 + 2) * math.Max(sol.OmegaC, 1)
	res, err := cmvrp.RunOnline(seq, cmvrp.OnlineOptions{
		Arena:    arena,
		CubeSide: sol.CubeSide,
		Capacity: w,
		Seed:     7,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "online at W=%.1f: served %d/%d jobs, %d replacements, %d messages\n",
		w, res.Served, seq.Len(), res.Replacements, res.Messages)
	if !res.OK() {
		return fmt.Errorf("online run failed: %v", res.Failures[0])
	}
	fmt.Fprintf(out, "peak per-vehicle energy used: %.1f (%.1f%% of W)\n",
		res.MaxEnergy, 100*res.MaxEnergy/w)
	return nil
}
