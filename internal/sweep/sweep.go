// Package sweep is the deterministic parallel episode-sweep engine: the
// substrate every multi-scenario study in this repository (the experiments
// tables, capacity grids, robustness sweeps) runs on.
//
// A sweep evaluates n independent scenarios — cells of a grid such as
// workload × geometry × seed × failure fraction × monitoring on/off — on a
// pool of workers and returns the results ordered by scenario index. Two
// disciplines make the output bit-for-bit identical for any worker count:
//
//   - scenarios are pure: each is a deterministic function of its index
//     (fixed-seed simulations, closed-form solves), so *which* worker
//     evaluates it cannot change the value;
//   - results are collected by scenario index, so assembly order never
//     depends on scheduling.
//
// Each worker owns one long-lived online.Pool: scenarios that share an arena
// and cube side replay on one warm runner via ResetEpisode (construction-
// free), while geometry changes build — and then pool — a new runner. The
// pool, and every Runner and sim.Network inside it, is confined to its
// worker goroutine; concurrency lives strictly above whole networks, per the
// DESIGN.md invariant. Offline scenario grids follow the same discipline
// through Worker.LPSolver: one warm LP (2.1) solver per worker, re-bound
// per instance.
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/demand"
	"repro/internal/lpchar"
	"repro/internal/online"
)

// Config configures a sweep.
type Config struct {
	// Workers is the fan-out width. 1 evaluates scenarios inline (serial);
	// <= 0 resolves to runtime.NumCPU(). The assembled results are identical
	// for every value — determinism comes from ordering, not scheduling —
	// so callers pin a width only for reproducible wall-clock, never for
	// reproducible values.
	Workers int
}

// Worker is the per-goroutine context handed to scenario functions. It owns
// the goroutine's warm-runner pool; scenario functions that play online
// episodes should do so through Episode (or Pool().Get) to reuse runners
// instead of rebuilding the world per scenario. Offline scenario grids use
// LPSolver the same way: one warm LP solver per worker, re-bound per
// instance.
type Worker struct {
	pool *online.Pool
	lp   *lpchar.Solver
}

// Pool returns the worker's runner pool.
func (w *Worker) Pool() *online.Pool { return w.pool }

// LPSolver returns the worker's long-lived LP (2.1) solver — the offline
// counterpart of the one-runner-per-worker rule. Scenario functions Bind it
// to their instance and probe warm; rebinding reuses the solver's network
// arrays and offset index, so offline sweeps are construction-free after
// the first scenario. The solver is confined to its worker goroutine.
func (w *Worker) LPSolver() *lpchar.Solver {
	if w.lp == nil {
		w.lp = new(lpchar.Solver)
	}
	return w.lp
}

// Episode plays one online episode under opts on a pooled warm runner and
// returns its result. The result does not alias runner state that the next
// episode would overwrite, so it may be retained across the sweep.
func (w *Worker) Episode(opts online.Options, seq *demand.Sequence) (*online.Result, error) {
	r, err := w.pool.Get(opts)
	if err != nil {
		return nil, err
	}
	return r.Run(seq)
}

// Run evaluates fn for every scenario index 0..n-1 across the configured
// worker width and returns the results ordered by index. fn must be a pure
// function of its index (it may freely use the Worker's pooled runners —
// they are reset to construction state per episode). Workers claim indices
// from a shared counter, so load balances dynamically; the result slice is
// positionally assigned, so the output is identical for every width.
//
// On failure Run returns the error of the lowest-indexed failed scenario.
// Scenario evaluation stops early after a failure, so which higher-indexed
// scenarios were still evaluated (never: their results) can vary with
// scheduling.
func Run[T any](cfg Config, n int, fn func(w *Worker, i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		w := &Worker{pool: online.NewPool()}
		for i := 0; i < n; i++ {
			r, err := fn(w, i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &Worker{pool: online.NewPool()}
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				r, err := fn(w, i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Map is Run over a slice of scenario descriptions: fn receives the item at
// each index alongside the worker and index.
func Map[S, T any](cfg Config, items []S, fn func(w *Worker, item S, i int) (T, error)) ([]T, error) {
	return Run(cfg, len(items), func(w *Worker, i int) (T, error) {
		return fn(w, items[i], i)
	})
}

// Scenario is one cell of an episode grid: the full specification of one
// online run. Scenarios sharing Opts.Arena (pointer) and cube side replay on
// one warm runner per worker.
type Scenario struct {
	Opts online.Options
	Seq  *demand.Sequence
}

// Episodes plays one online episode per scenario and returns the results
// ordered by scenario index — the declarative form of a pure episode grid
// (cmvrp.RunSweep exports it).
func Episodes(cfg Config, scenarios []Scenario) ([]*online.Result, error) {
	return Map(cfg, scenarios, func(w *Worker, s Scenario, _ int) (*online.Result, error) {
		return w.Episode(s.Opts, s.Seq)
	})
}
