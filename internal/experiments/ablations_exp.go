package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/demand"
	"repro/internal/grid"
	"repro/internal/lpchar"
	"repro/internal/offline"
	"repro/internal/online"
	"repro/internal/sweep"
)

// E11Ablations quantifies two design choices DESIGN.md calls out:
//
//  1. cube-size granularity — Algorithm 1 inspects only power-of-two cube
//     sizes; how much of the lower bound does that concede vs the full
//     sweep? (The answer is bounded by the doubling ratio.)
//  2. the monitoring ring — the Section 3.2.5 heartbeats cost messages even
//     when nothing fails; how many?
func E11Ablations(n int, jobs int64, seed int64, workers, shards int) (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: fmt.Sprintf("ablations (n=%d, %d jobs)", n, jobs),
		Columns: []string{"workload", "omega cubes (all sizes)", "omega cubes (doubling)",
			"doubling/full", "msgs monitoring off", "msgs monitoring on", "overhead x"},
		Notes: "Doubling concedes at most ~2x of the cube characterization; the heartbeat ring multiplies message load even in failure-free runs.",
	}
	arena := grid.MustNew(n, n)
	// A mixed-geometry sweep: char.Side varies per workload, so a worker's
	// pool rebuilds on geometry changes and warm-resets the monitoring-
	// off/on episode pair within each scenario.
	type row struct {
		full, dbl float64
		msgs      [2]int64
	}
	names := []string{"uniform", "clusters", "point"}
	rows, err := sweep.Map(sweep.Config{Workers: workers}, names,
		func(w *sweep.Worker, name string, _ int) (row, error) {
			rng := rand.New(rand.NewSource(seed))
			m, err := workload(name, arena, rng, jobs)
			if err != nil {
				return row{}, err
			}
			// One dense view per workload: the cube omega* scans and the
			// Corollary 2.2.7 characterization share a single summed-area
			// table instead of each densifying the demand again.
			dense, err := offline.NewDense(m, arena)
			if err != nil {
				return row{}, err
			}
			ps := dense.Prefix()
			full, err := lpchar.OmegaStarCubesPS(ps)
			if err != nil {
				return row{}, err
			}
			dbl, err := lpchar.OmegaStarCubesDoublingPS(ps)
			if err != nil {
				return row{}, err
			}
			char, err := dense.OmegaC()
			if err != nil {
				return row{}, err
			}
			seq, err := demand.SequenceOf(m, demand.OrderShuffled, rng)
			if err != nil {
				return row{}, err
			}
			wcap := float64(4*9+2) * math.Max(char.Omega, 1)
			var msgs [2]int64
			for i, monitoring := range []bool{false, true} {
				res, err := w.Episode(online.Options{
					Arena: arena, CubeSide: char.Side, Capacity: wcap,
					Seed: seed, Monitoring: monitoring, SimShards: shards,
				}, seq)
				if err != nil {
					return row{}, err
				}
				if !res.OK() {
					return row{}, fmt.Errorf("experiments: E11 %s run failed", name)
				}
				msgs[i] = res.Messages
			}
			return row{full: full, dbl: dbl, msgs: msgs}, nil
		})
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		t.AddRow(names[i], r.full, r.dbl, r.dbl/r.full, r.msgs[0], r.msgs[1],
			float64(r.msgs[1])/math.Max(float64(r.msgs[0]), 1))
	}
	return t, nil
}

// E13Robustness sweeps the Section 3.2.5 failure scenarios: an increasing
// fraction of vehicles silently fails to initiate replacement searches upon
// exhaustion, and the served fraction is measured with the monitoring ring
// on and off. The thesis' claim: monitoring makes scenario 2 harmless.
func E13Robustness(fractions []float64, seed int64, workers, shards int) (*Table, error) {
	t := &Table{
		ID:    "E13",
		Title: "failure robustness (Section 3.2.5 scenario 2)",
		Columns: []string{"fail-initiate fraction", "served (monitoring off)",
			"served (monitoring on)", "rescues (on)"},
		Notes: "With the heartbeat ring every job is served regardless of how many exhausted vehicles stay silent; without it, service collapses as the fraction grows.",
	}
	const n = 6
	arena := grid.MustNew(n, n)
	// The geometry never changes across the sweep, so every scenario after a
	// worker's first warm-resets one pooled runner — ResetEpisode re-applies
	// the per-fraction FailInitiate map without rebuilding anything.
	const jobCount = 50
	type row struct {
		served  [2]int64
		rescues int64
	}
	rows, err := sweep.Map(sweep.Config{Workers: workers}, fractions,
		func(w *sweep.Worker, frac float64, _ int) (row, error) {
			if frac < 0 || frac > 1 {
				return row{}, fmt.Errorf("experiments: fraction %v outside [0,1]", frac)
			}
			rng := rand.New(rand.NewSource(seed))
			fail := map[grid.Point]bool{}
			for _, p := range arena.Bounds().Points() {
				if rng.Float64() < frac {
					fail[p] = true
				}
			}
			capacity := 14.0 // > cube diameter + serve reserve for 6x6
			hot := grid.P(2, 2)
			jobs := make([]grid.Point, jobCount)
			for i := range jobs {
				jobs[i] = hot
			}
			seq := demand.NewSequence(jobs)
			var out row
			for i, monitoring := range []bool{false, true} {
				res, err := w.Episode(online.Options{
					Arena: arena, CubeSide: n, Capacity: capacity,
					Seed: seed, Monitoring: monitoring,
					Failure:   &online.FailureModel{FailInitiate: fail},
					SimShards: shards,
				}, seq)
				if err != nil {
					return row{}, err
				}
				out.served[i] = res.Served
				if monitoring {
					out.rescues = res.MonitorRescues
				}
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		t.AddRow(fractions[i],
			fmt.Sprintf("%d/%d", r.served[0], jobCount),
			fmt.Sprintf("%d/%d", r.served[1], jobCount),
			r.rescues)
	}
	return t, nil
}

// E12DimensionSweep probes the thesis' closing question (Chapter 6): the
// approximation constants are exponential in the dimension l — is that
// necessary? We measure the *actual* schedule-vs-omega_c ratio for the same
// point demand in l = 1, 2, 3 against the analytic 2*3^l + l.
func E12DimensionSweep(d int64) (*Table, error) {
	t := &Table{
		ID:    "E12",
		Title: fmt.Sprintf("dimension sweep, point demand d=%d (thesis Ch 6 question)", d),
		Columns: []string{"l", "omega_c", "schedule W", "measured ratio",
			"analytic bound 2*3^l+l"},
		Notes: "For worst-case point demand the measured ratio tracks the exponential 2*3^l+l constant closely: the Lemma 2.2.5 construction really does pay it, which is why the thesis flags improving the l-dependence as open.",
	}
	configs := []struct {
		arena *grid.Grid
		pt    grid.Point
	}{
		{grid.MustNew(256), grid.P(128)},
		{grid.MustNew(64, 64), grid.P(32, 32)},
		{grid.MustNew(24, 24, 24), grid.P(12, 12, 12)},
	}
	for _, cfg := range configs {
		l := cfg.arena.Dim()
		m := demand.NewMap(l)
		if err := m.Add(cfg.pt, d); err != nil {
			return nil, err
		}
		sol, err := offline.Solve(m, cfg.arena)
		if err != nil {
			return nil, fmt.Errorf("experiments: E12 l=%d: %w", l, err)
		}
		omega, w := sol.Char.Omega, sol.Schedule.W
		bound := 2*math.Pow(3, float64(l)) + float64(l)
		t.AddRow(l, omega, w, w/math.Max(omega, 1), bound)
	}
	return t, nil
}
