package bench

import (
	"fmt"
	"math"
	"math/rand"

	cmvrp "repro"
	"repro/internal/demand"
	"repro/internal/grid"
	"repro/internal/lpchar"
	"repro/internal/offline"
	"repro/internal/sweep"
)

var offlinePlan = &Workload{
	Name:    "offline-plan",
	Why:     "grid and offline (densify, omega_c, Algorithm 1, schedule, verify) do all the work; lpchar, flow and sim do none",
	Inputs:  256,
	Clients: 1,
	Batch:   32,
	Warmup:  4,
	setup:   setupOfflinePlan,
}

var exactBound = &Workload{
	Name:    "exact-bound",
	Why:     "the lpchar probe ladder and Dinic max-flow are almost the whole op; schedule construction and the simulator are bypassed",
	Inputs:  256,
	Clients: 1,
	Batch:   16,
	Warmup:  4,
	// ExactLowerBound takes its solver from a sync.Pool, which caches per P.
	// With a second P, a busy host moves the client between Ps, a Get on the
	// P without a solver builds a new one, megabytes at once, and
	// bytes_per_op follows the host's load. One P runs the single client
	// alike and lets every Get find the solver the last op put back.
	Procs: 1,
	setup: setupExactBound,
}

// demandPool builds n demand maps of jobs jobs in box, rotating the three
// shapes the workloads share: uniform, four clusters and Zipf(1.4).
func demandPool(rng *rand.Rand, box grid.Box, n int, jobs int64) ([]*demand.Map, error) {
	spread := max(int(box.Side(0))/8, 1)
	ms := make([]*demand.Map, n)
	for i := range ms {
		var err error
		switch i % 3 {
		case 0:
			ms[i], err = demand.Uniform(rng, box, jobs)
		case 1:
			ms[i], err = demand.Clusters(rng, box, 4, jobs/4, spread)
		default:
			ms[i], err = demand.Zipf(rng, box, jobs, 1.4)
		}
		if err != nil {
			return nil, err
		}
	}
	return ms, nil
}

// centralBox is the side x side box in the middle of a square arena.
func centralBox(arena *grid.Grid, side int) (grid.Box, error) {
	lo := (arena.Size(0) - side) / 2
	return grid.NewBox(2, grid.P(lo, lo), grid.P(lo+side-1, lo+side-1))
}

func setupOfflinePlan(seed int64, inputs int) (*instance, error) {
	arena, err := grid.New(128, 128)
	if err != nil {
		return nil, err
	}
	box, err := centralBox(arena, 64)
	if err != nil {
		return nil, err
	}
	ms, err := demandPool(rand.New(rand.NewSource(seed)), box, inputs, 16000)
	if err != nil {
		return nil, err
	}
	return &instance{
		serve: oneClient,
		op: func(_ *sweep.Worker, i int, tr *tracer) (uint64, error) {
			m := ms[i%len(ms)]
			var sol *cmvrp.OfflineSolution
			var err error
			if tr == nil {
				sol, err = cmvrp.SolveOffline(m, arena)
			} else {
				sol, err = solveOfflineTraced(m, arena, tr)
			}
			if err != nil {
				return 0, err
			}
			// In the plane, Lemma 2.2.5's construction has each vehicle serve
			// at most ceil(9*omega_c) jobs at home and as many at one cell of
			// its own cube of side CubeSide, so none needs more than twice
			// that plus the cube's diameter. (20*omega_c is not enough: one
			// seed-3 input has omega_c 7.05 and W 142.)
			w, oc := sol.Schedule.W, sol.OmegaC
			hi := 2*math.Ceil(9*oc) + 2*float64(sol.CubeSide-1)
			if w < oc || w > hi {
				return 0, fmt.Errorf("schedule W %v outside [omega_c, %v] for omega_c %v, cube side %d", w, hi, oc, sol.CubeSide)
			}
			h := newHash()
			h.f64(sol.OmegaC)
			h.i64(int64(sol.CubeSide))
			h.f64(sol.Alg1W)
			h.f64(w)
			h.i64(int64(len(sol.Schedule.Plans)))
			return uint64(h), nil
		},
	}, nil
}

// solveOfflineTraced makes the calls cmvrp.SolveOffline makes, in its
// order, with a span around each.
func solveOfflineTraced(m *demand.Map, arena *grid.Grid, tr *tracer) (*cmvrp.OfflineSolution, error) {
	s := tr.begin()
	d, err := offline.NewDense(m, arena)
	tr.end(s, "offline.dense")
	if err != nil {
		return nil, err
	}
	s = tr.begin()
	char, err := d.OmegaC()
	tr.end(s, "offline.omega_c")
	if err != nil {
		return nil, err
	}
	sol := &cmvrp.OfflineSolution{OmegaC: char.Omega, CubeSide: char.Side}
	s = tr.begin()
	res, err := d.Algorithm1()
	tr.end(s, "offline.alg1")
	if err == nil {
		sol.Alg1W = res.W
	}
	s = tr.begin()
	sched, err := d.BuildSchedule(char)
	tr.end(s, "offline.schedule")
	if err != nil {
		return nil, err
	}
	s = tr.begin()
	_, err = offline.VerifySchedule(m, sched, sched.W)
	tr.end(s, "offline.verify")
	if err != nil {
		return nil, err
	}
	sol.Schedule = sched
	return sol, nil
}

func setupExactBound(seed int64, inputs int) (*instance, error) {
	arena, err := grid.New(32, 32)
	if err != nil {
		return nil, err
	}
	box, err := centralBox(arena, 16)
	if err != nil {
		return nil, err
	}
	ms, err := demandPool(rand.New(rand.NewSource(seed)), box, inputs, 800)
	if err != nil {
		return nil, err
	}
	omegaC := make([]float64, len(ms))
	for k, m := range ms {
		char, err := offline.OmegaC(m, arena)
		if err != nil {
			return nil, err
		}
		omegaC[k] = char.Omega
	}
	return &instance{
		serve: oneClient,
		op: func(_ *sweep.Worker, i int, tr *tracer) (uint64, error) {
			k := i % len(ms)
			var w float64
			var err error
			if tr == nil {
				w, err = cmvrp.ExactLowerBound(ms[k])
			} else {
				s := tr.begin()
				w, err = lpchar.OmegaStarFlow(ms[k])
				tr.end(s, "lpchar.omega_star")
			}
			if err != nil {
				return 0, err
			}
			if oc := omegaC[k]; oc > w*(1+1e-6)+1e-6 || w > 20*math.Max(oc, 1) {
				return 0, fmt.Errorf("omega* %v outside [omega_c, 20*max(omega_c,1)] for omega_c %v", w, oc)
			}
			h := newHash()
			h.f64(w)
			return uint64(h), nil
		},
	}, nil
}
