package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/demand"
	"repro/internal/grid"
	"repro/internal/offline"
	"repro/internal/online"
	"repro/internal/sweep"
)

// E7Online measures the empirical Won (smallest capacity at which the
// Chapter 3 strategy serves everything) against omega_c and the Theorem
// 1.4.2 guarantee (4*3^l+l)*omega_c, plus the greedy dispatcher baseline.
// shards selects the simulator scheduler (online.Options.SimShards).
func E7Online(n int, jobs int64, seed int64, workers, shards int) (*Table, error) {
	t := &Table{
		ID:    "E7",
		Title: fmt.Sprintf("online vs offline capacity (n=%d, %d jobs)", n, jobs),
		Columns: []string{"workload", "omega_c", "measured Won", "Won/omega_c",
			"theorem bound (4*3^l+l)*omega_c", "greedy baseline W"},
		Notes: "Theorem 1.4.2: Won = Theta(Woff); the measured ratio stays below the 38x analytic constant (and far below it in practice).",
	}
	arena := grid.MustNew(n, n)
	// One scenario per workload; each runs its own capacity search, and the
	// fan-out here is across workloads. The searches take their runners from
	// MinCapacity's pools, not the sweep worker's: the four share one arena,
	// so a search that gets the pool of an earlier one at the same cube side
	// builds nothing. The table does not depend on which pool each gets.
	type row struct {
		omega, won, greedyW float64
	}
	names := []string{"uniform", "clusters", "point", "line"}
	rows, err := sweep.Map(sweep.Config{Workers: workers}, names,
		func(_ *sweep.Worker, name string, _ int) (row, error) {
			rng := rand.New(rand.NewSource(seed))
			m, err := workload(name, arena, rng, jobs)
			if err != nil {
				return row{}, err
			}
			char, err := offline.OmegaC(m, arena)
			if err != nil {
				return row{}, err
			}
			seq, err := demand.SequenceOf(m, demand.OrderShuffled, rng)
			if err != nil {
				return row{}, err
			}
			won, err := online.MinCapacity(seq, online.Options{
				Arena: arena, CubeSide: char.Side, Seed: seed, SimShards: shards,
			}, 0.05)
			if err != nil {
				return row{}, err
			}
			greedyW, err := baseline.GreedyMinCapacity(seq, arena, 0.05)
			if err != nil {
				return row{}, err
			}
			return row{omega: char.Omega, won: won, greedyW: greedyW}, nil
		})
	if err != nil {
		return nil, err
	}
	l := float64(arena.Dim())
	for i, r := range rows {
		base := math.Max(r.omega, 1)
		t.AddRow(names[i], r.omega, r.won, r.won/base, (4*math.Pow(3, l)+l)*base, r.greedyW)
	}
	return t, nil
}

// E8Diffusion measures the replacement machinery's message complexity as the
// cube side grows: a single hot point forces a stream of replacements, and
// the per-replacement message count scales with the cube's communication
// graph, not with total jobs (Section 3.2.3's locality).
func E8Diffusion(cubeSides []int, seed int64, shards int) (*Table, error) {
	t := &Table{
		ID:    "E8",
		Title: "diffusing computation cost per replacement (Algorithm 2)",
		Columns: []string{"cube side", "vehicles/cube", "jobs", "replacements",
			"searches", "monitor rescues", "messages", "msgs/replacement"},
		Notes: "Phase I floods one cube's distance-2 graph: messages per replacement grow with cube size, independent of job count.",
	}
	for _, s := range cubeSides {
		arena := grid.MustNew(s, s) // one cube
		capacity := float64(4*s + 4)
		r, err := online.NewRunner(online.Options{
			Arena: arena, CubeSide: s, Capacity: capacity, Seed: seed,
			SimShards: shards,
		})
		if err != nil {
			return nil, err
		}
		pos := r.Partition().Pairs()[0].ServicePos()
		// Enough jobs to exhaust several vehicles but not the whole cube.
		jobs := int((capacity - 2) * 3)
		arrivals := make([]grid.Point, jobs)
		for i := range arrivals {
			arrivals[i] = pos
		}
		res, err := r.Run(demand.NewSequence(arrivals))
		if err != nil {
			return nil, err
		}
		if !res.OK() {
			return nil, fmt.Errorf("experiments: E8 run failed at side %d: %v", s, res.Failures[0])
		}
		perRepl := float64(res.Messages)
		if res.Replacements > 0 {
			perRepl = float64(res.Messages) / float64(res.Replacements)
		}
		t.AddRow(s, s*s, jobs, res.Replacements, res.Searches,
			res.MonitorRescues, res.Messages, perRepl)
	}
	return t, nil
}
