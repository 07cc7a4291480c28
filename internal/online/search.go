package online

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/demand"
)

// maxSearchCapacity bounds the exponential bracket; beyond it the instance
// is declared infeasible.
const maxSearchCapacity = 1e12

// prober is the warm-started feasibility oracle of the capacity searches:
// does the strategy serve the whole sequence at capacity w with no failed
// replacement searches? Each prober owns one long-lived Runner, built on its
// first probe and Reset — not rebuilt — for every probe after that, so the
// partition, vehicles, diffusion engines, and the simulator's link tables
// and ring buffers are constructed once per search (or once per worker).
// A prober is confined to one goroutine; concurrent probers share only the
// immutable Partition carried in base.Partition.
type prober struct {
	seq  *demand.Sequence
	base Options
	r    *Runner
}

func (p *prober) probe(w float64) (bool, error) {
	if p.r == nil {
		opts := p.base
		opts.Capacity = w
		r, err := NewRunner(opts)
		if err != nil {
			return false, err
		}
		p.r = r
	} else if err := p.r.Reset(w, p.base.Seed); err != nil {
		return false, err
	}
	res, err := p.r.Run(p.seq)
	if err != nil {
		return false, err
	}
	return res.OK() && res.SearchFailures == 0, nil
}

// minSearchTol is the finest relative tolerance a bisection can meet:
// float64 values near hi are up to hi·2⁻⁵² apart, so at a finer tolerance
// (zero and negative included) a bracket of two adjacent floats would be
// bisected forever.
const minSearchTol = 0x1p-52

// checkSearchBounds rejects the inputs on which a capacity search would
// stall or answer nonsense: a non-finite start lo (NaN slips past the
// serveCost clamp and comes back as the answer), and a tolerance that is
// not finite and at least minSearchTol (a NaN tol skips the bisection
// entirely). Both searches call it first.
func checkSearchBounds(lo, tol float64) error {
	if math.IsNaN(lo) || math.IsInf(lo, 0) {
		return fmt.Errorf("online: search start capacity %v must be finite", lo)
	}
	if !(tol >= minSearchTol) || math.IsInf(tol, 1) {
		return fmt.Errorf("online: search tolerance %v must be finite and at least 2^-52", tol)
	}
	return nil
}

// sharePartition makes sure base carries a prebuilt Partition so every
// runner of a search reuses one geometry instead of rebuilding it per probe.
func sharePartition(base *Options) error {
	if base.Partition != nil {
		return nil
	}
	if base.Arena == nil {
		return errors.New("online: Arena is required")
	}
	part, err := NewPartition(base.Arena, base.CubeSide)
	if err != nil {
		return err
	}
	base.Partition = part
	return nil
}

// MinCapacity measures the empirical Won for a sequence: the smallest
// capacity (within tol, relative) for which the strategy serves every job.
// The bracket grows exponentially from lo until a run succeeds. All probes
// reuse one Runner (reset per probe) and one shared Partition.
func MinCapacity(seq *demand.Sequence, base Options, lo float64, tol float64) (float64, error) {
	if err := checkSearchBounds(lo, tol); err != nil {
		return 0, err
	}
	if lo < serveCost {
		lo = serveCost
	}
	if err := sharePartition(&base); err != nil {
		return 0, err
	}
	p := &prober{seq: seq, base: base}
	return bracketBisect(p.probe, lo, tol)
}

// bracketBisect is the serial search over a monotone feasibility oracle: it
// doubles hi from lo until a probe succeeds, then bisects [lo, hi] down to
// tol (relative) and returns the feasible end. Every capacity is probed at
// most once: when the first probe, lo itself, succeeds, lo is the answer,
// and otherwise lo is known infeasible and the bisection never probes it.
func bracketBisect(feasible func(float64) (bool, error), lo, tol float64) (float64, error) {
	hi := lo
	for {
		ok, err := feasible(hi)
		if err != nil {
			return 0, err
		}
		if ok {
			break
		}
		hi *= 2
		if hi > maxSearchCapacity {
			return 0, errors.New("online: no feasible capacity below 1e12")
		}
	}
	if hi == lo {
		return lo, nil
	}
	for hi-lo > tol*math.Max(1, hi) {
		mid := (lo + hi) / 2
		ok, err := feasible(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// MinCapacityParallel is MinCapacity with the independent probes raced
// across a pool of base.SearchWorkers goroutines, each owning one
// long-lived Runner (and Network) that it resets per probe; all workers
// share one immutable Partition. Both phases are batched: the exponential
// bracket evaluates `workers` doublings at once, and the bisection replaces
// the midpoint probe with `workers` evenly spaced interior points, narrowing
// the bracket by a factor of workers+1 per round. The result is
// deterministic for a given worker count (batch results are gathered
// before any decision), though it may differ from the serial search by up
// to the tolerance, since both simply return a feasible point within tol
// of the infeasible boundary — pin SearchWorkers for machine-independent
// answers. SearchWorkers == 1 falls back to the serial search;
// SearchWorkers <= 0 uses runtime.NumCPU(). base.Tracer is ignored: probes
// run concurrently and a shared tracer would race.
func MinCapacityParallel(seq *demand.Sequence, base Options, lo, tol float64) (float64, error) {
	if err := checkSearchBounds(lo, tol); err != nil {
		return 0, err
	}
	workers := base.SearchWorkers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers == 1 {
		return MinCapacity(seq, base, lo, tol)
	}
	base.Tracer = nil
	if lo < serveCost {
		lo = serveCost
	}
	if err := sharePartition(&base); err != nil {
		return 0, err
	}
	// One prober per worker slot. Batches never exceed `workers` entries, so
	// candidate i of a batch always runs on prober i: a prober is touched by
	// one goroutine per batch, and wg.Wait orders batches, so each runner
	// stays effectively single-threaded across the whole search. Which
	// prober evaluates a capacity does not matter for the answer — every
	// probe is a fixed-seed run from reset state.
	probers := make([]*prober, workers)
	for i := range probers {
		probers[i] = &prober{seq: seq, base: base}
	}

	// probeBatch evaluates candidate capacities concurrently (both phases
	// build batches of at most `workers` entries). Errors are resolved in
	// candidate order so the returned error is deterministic.
	probeBatch := func(ws []float64) ([]bool, error) {
		oks := make([]bool, len(ws))
		errs := make([]error, len(ws))
		var wg sync.WaitGroup
		for i := range ws {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				oks[i], errs[i] = probers[i].probe(ws[i])
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return oks, nil
	}

	// Phase 1 — exponential bracket, `workers` doublings per batch:
	// find the smallest k with lo*2^k feasible.
	feasibleK := -1
	w := lo
	for k := 0; feasibleK < 0; {
		var batch []float64
		for len(batch) < workers && w <= maxSearchCapacity {
			batch = append(batch, w)
			w *= 2
		}
		if len(batch) == 0 {
			return 0, errors.New("online: no feasible capacity below 1e12")
		}
		oks, err := probeBatch(batch)
		if err != nil {
			return 0, err
		}
		for j, ok := range oks {
			if ok {
				feasibleK = k + j
				break
			}
		}
		k += len(batch)
	}
	if feasibleK == 0 {
		return lo, nil
	}
	curLo := lo * math.Pow(2, float64(feasibleK-1))
	curHi := lo * math.Pow(2, float64(feasibleK))

	// Phase 2 — parallel bisection: `workers` interior points per round.
	for curHi-curLo > tol*math.Max(1, curHi) {
		ws := make([]float64, workers)
		for j := range ws {
			ws[j] = curLo + (curHi-curLo)*float64(j+1)/float64(workers+1)
		}
		oks, err := probeBatch(ws)
		if err != nil {
			return 0, err
		}
		first := -1
		for j, ok := range oks {
			if ok {
				first = j
				break
			}
		}
		switch {
		case first < 0:
			curLo = ws[len(ws)-1]
		case first == 0:
			curHi = ws[0]
		default:
			curLo, curHi = ws[first-1], ws[first]
		}
	}
	return curHi, nil
}
