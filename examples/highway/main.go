// Highway: thesis Example 2 (Fig 2.1b) as an application — mobile sensors
// monitoring traffic flow along a highway. Demand is uniform along a line;
// the thesis predicts the required capacity scales as sqrt(d) (W2 solves
// W(2W+1) = d) because a widening band of vehicles around the road can
// contribute. The example sweeps the traffic intensity and compares the
// measured offline schedule against the prediction, then runs one online
// replay.
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
	arena, err := cmvrp.NewArena(64, 64)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "traffic   W2=root of W(2W+1)=d   omega_c   schedule W")
	for _, d := range []int64{8, 32, 128} {
		dem, err := cmvrp.LineDemand(cmvrp.P(8, 32), 48, d)
		if err != nil {
			return err
		}
		sol, err := cmvrp.SolveOffline(dem, arena)
		if err != nil {
			return err
		}
		w2 := math.Sqrt(float64(d) / 2) // asymptotic root of W(2W+1)=d
		fmt.Fprintf(out, "%7d   %20.2f   %7.2f   %10.2f\n", d, w2, sol.OmegaC, sol.Schedule.W)
	}

	// Online replay at the heaviest traffic level.
	dem, err := cmvrp.LineDemand(cmvrp.P(8, 32), 48, 128)
	if err != nil {
		return err
	}
	sol, err := cmvrp.SolveOffline(dem, arena)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(3))
	seq, err := cmvrp.ToSequence(dem, cmvrp.OrderShuffled, rng)
	if err != nil {
		return err
	}
	won, err := cmvrp.MeasureWon(seq, cmvrp.OnlineOptions{
		Arena: arena, CubeSide: sol.CubeSide, Seed: 3,
	}, 0.05)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nonline: measured Won = %.1f (%.1fx omega_c; theorem allows %dx)\n",
		won, won/math.Max(sol.OmegaC, 1), 4*9+2)
	return nil
}
