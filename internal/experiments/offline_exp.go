package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/demand"
	"repro/internal/grid"
	"repro/internal/lpchar"
	"repro/internal/offline"
	"repro/internal/sweep"
)

// E4Duality regenerates the Lemma 2.2.1-2.2.3 duality chain empirically: on
// random small instances, the flow-computed LP (2.1) value must equal the
// closed form max_T sum(d)/|N_r(T)| over all subsets, with the box-family
// maximum sandwiched below. The trials share one rng stream and one
// lpchar.Solver: each trial is drawn, then solved on the solver re-bound to
// it, before the next is drawn.
func E4Duality(trials int, seed int64) (*Table, error) {
	t := &Table{
		ID:    "E4",
		Title: "LP (2.1) duality chain (Lemmas 2.2.1-2.2.3)",
		Columns: []string{"trial", "dim", "r", "support", "LP via max-flow",
			"max_T sum(d)/|N_r(T)|", "max over boxes", "flow == subsets"},
		Notes: "Lemma 2.2.2 says columns 5 and 6 are equal; boxes (Cor 2.2.6's family) lower-bound them.",
	}
	rng := rand.New(rand.NewSource(seed))
	var lp lpchar.Solver
	for trial := range trials {
		dim := 1 + rng.Intn(2)
		m := demand.NewMap(dim)
		points := 2 + rng.Intn(5)
		for i := 0; i < points; i++ {
			var p grid.Point
			for a := 0; a < dim; a++ {
				p[a] = int32(rng.Intn(6))
			}
			if err := m.Add(p, 1+rng.Int63n(20)); err != nil {
				return nil, err
			}
		}
		r := rng.Intn(4)
		if err := lp.Bind(m, r); err != nil {
			return nil, err
		}
		flowV, err := lp.Value()
		if err != nil {
			return nil, err
		}
		subsetV, err := lpchar.SubsetValue(m, r)
		if err != nil {
			return nil, err
		}
		boxV, _, err := lpchar.MaxOverBoxes(m, r)
		if err != nil {
			return nil, err
		}
		t.AddRow(trial, dim, r, m.SupportSize(), flowV, subsetV, boxV, flowV == subsetV)
	}
	return t, nil
}

// workload builds one of the named synthetic workloads inside the arena's
// safe interior.
func workload(name string, arena *grid.Grid, rng *rand.Rand, jobs int64) (*demand.Map, error) {
	n := arena.Size(0)
	inner, err := grid.NewBox(2, grid.P(n/4, n/4), grid.P(3*n/4-1, 3*n/4-1))
	if err != nil {
		return nil, err
	}
	switch name {
	case "uniform":
		return demand.Uniform(rng, inner, jobs)
	case "clusters":
		return demand.Clusters(rng, inner, 4, jobs/4, n/16+1)
	case "zipf":
		return demand.Zipf(rng, inner, jobs, 1.4)
	case "point":
		return demand.PointMass(2, grid.P(n/2, n/2), jobs)
	case "line":
		return demand.Line(grid.P(n/4, n/2), n/2, jobs/int64(n/2))
	default:
		return nil, fmt.Errorf("experiments: unknown workload %q", name)
	}
}

// E5ApproxQuality measures Algorithm 1 and the constructive schedule against
// the cube lower bound omega_c across workloads (Theorem 1.4.1 /
// Lemma 2.2.5 / Section 2.3). Ratio columns must stay below the analytic
// constants: schedule/omega_c <= 2*3^l+l = 20 and Alg1 is a
// 2(2*3^l+l)-approximation.
func E5ApproxQuality(n int, jobs int64, seed int64, workers int) (*Table, error) {
	t := &Table{
		ID:    "E5",
		Title: fmt.Sprintf("offline approximation quality (n=%d, %d jobs)", n, jobs),
		Columns: []string{"workload", "omega_c", "Alg1 W", "Alg1 branch",
			"schedule W", "schedule/omega_c", "bound 2*3^l+l"},
		Notes: "omega_c lower-bounds Woff (Cor 2.2.7); the built schedule certifies an upper bound within 2*3^l+l of it (Lemma 2.2.5).",
	}
	arena := grid.MustNew(n, n)
	bound := float64(2*9 + 2)
	// Each workload re-seeds its own rng, so the scenarios are independent
	// pure functions of their name — the sweep's unit of fan-out.
	type row struct {
		omega, alg1W float64
		branch       string
		schedW       float64
	}
	names := []string{"uniform", "clusters", "zipf", "point", "line"}
	rows, err := sweep.Map(sweep.Config{Workers: workers}, names,
		func(_ *sweep.Worker, name string, _ int) (row, error) {
			rng := rand.New(rand.NewSource(seed))
			m, err := workload(name, arena, rng, jobs)
			if err != nil {
				return row{}, err
			}
			sol, err := offline.Solve(m, arena)
			if err == nil {
				err = sol.Alg1Err
			}
			if err != nil {
				return row{}, fmt.Errorf("experiments: %s: %w", name, err)
			}
			return row{omega: sol.Char.Omega, alg1W: sol.Alg1.W, branch: sol.Alg1.Branch.String(), schedW: sol.Schedule.W}, nil
		})
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		ratio := r.schedW / math.Max(r.omega, 1)
		t.AddRow(names[i], r.omega, r.alg1W, r.branch, r.schedW, ratio, bound)
	}
	return t, nil
}

// E6Runtime measures Algorithm 1's work as it scales: the aligned cube sums
// its doubling pyramid reads from the summed-area table (Alg1Result.Sums).
// Section 2.3 proves O(n^l) total work. Level w reads at most (n/w)^l sums,
// and the sum of (n/w)^l over w = 2, 4, ... is at most n^l/(2^l-1), so the
// sums per cell stay at most 1/(2^l-1) at every n. The count is a pure
// function of the demand; wall-clock timing is the benchmark's.
func E6Runtime(sizes []int, seed int64) (*Table, error) {
	const l = 2
	t := &Table{
		ID:    "E6",
		Title: "Algorithm 1 work scaling (Section 2.3: O(n^l))",
		Columns: []string{"n", "cells", "total jobs", "cube sums read",
			"sums per cell", "bound 1/(2^l-1)"},
		Notes: "Linear work: level w of the pyramid reads at most (n/w)^l aligned cube sums, and the sum of (n/w)^l over w = 2, 4, ... is at most n^l/(2^l-1), so sums per cell stay at most 1/(2^l-1) at every n. Wall-clock timing lives in the benchmark's offline.alg1_ms row.",
	}
	bound := 1 / (math.Exp2(l) - 1)
	for _, n := range sizes {
		arena := grid.MustNew(n, n)
		rng := rand.New(rand.NewSource(seed))
		inner, err := grid.NewBox(l, grid.P(n/4, n/4), grid.P(3*n/4-1, 3*n/4-1))
		if err != nil {
			return nil, err
		}
		m, err := demand.Uniform(rng, inner, int64(n)*int64(n))
		if err != nil {
			return nil, err
		}
		dense, err := offline.NewDense(m, arena)
		if err != nil {
			return nil, err
		}
		res, err := dense.Algorithm1()
		if err != nil {
			return nil, err
		}
		cells := arena.Len()
		t.AddRow(n, cells, m.Total(), res.Sums, float64(res.Sums)/float64(cells), bound)
	}
	return t, nil
}
