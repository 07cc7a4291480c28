package online

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/demand"
)

// maxSearchCapacity bounds the exponential bracket; beyond it the instance
// is declared infeasible.
const maxSearchCapacity = 1e12

// prober is the warm-started feasibility oracle of the capacity search:
// does the strategy serve the whole sequence at capacity w with no failed
// replacement searches? A prober owns one long-lived Runner, built on its
// first probe and Reset — not rebuilt — for every probe after that, so the
// partition, vehicles, diffusion engines, and the simulator's link tables
// and ring buffers are constructed once per search. A probe stops at the
// first arrival that leaves a failure or a failed search, since no later
// arrival can undo either, and reads its verdict from the runner.
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
	if err := p.r.play(p.seq, true); err != nil {
		return false, err
	}
	return !p.r.failed(), nil
}

// minSearchTol is the finest relative tolerance a bisection can meet:
// float64 values near hi are up to hi·2⁻⁵² apart, so at a finer tolerance
// (zero and negative included) a bracket of two adjacent floats would be
// bisected forever.
const minSearchTol = 0x1p-52

// checkSearchBounds rejects the inputs on which the capacity search would
// stall or answer nonsense: a non-finite start lo (NaN slips past the
// serveCost clamp and comes back as the answer), and a tolerance that is
// not finite and at least minSearchTol (a NaN tol skips the bisection
// entirely). MinCapacity calls it first.
func checkSearchBounds(lo, tol float64) error {
	if math.IsNaN(lo) || math.IsInf(lo, 0) {
		return fmt.Errorf("online: search start capacity %v must be finite", lo)
	}
	if !(tol >= minSearchTol) || math.IsInf(tol, 1) {
		return fmt.Errorf("online: search tolerance %v must be finite and at least 2^-52", tol)
	}
	return nil
}

// MinCapacity measures the empirical Won for a sequence: the smallest
// capacity (within tol, relative) for which the strategy serves every job
// with no failed search. The bracket grows exponentially from lo until a run
// succeeds. All probes reuse one Runner, reset per probe, and so one
// Partition: base.Partition when set, else the one the first probe builds.
//
// An infeasible probe stops at the first arrival that leaves a failure or a
// failed search, after that arrival's quiescence and monitor round; a
// feasible one plays the whole sequence, as Runner.Run does. So an error
// that an infeasible probe would raise only after its first failure, such
// as a step-limit livelock or a later arrival outside the arena, is not
// reached, and a base.Tracer sees each infeasible probe only up to its
// first failure.
func MinCapacity(seq *demand.Sequence, base Options, lo float64, tol float64) (float64, error) {
	if err := checkSearchBounds(lo, tol); err != nil {
		return 0, err
	}
	if lo < serveCost {
		lo = serveCost
	}
	p := &prober{seq: seq, base: base}
	return bracketBisect(p.probe, lo, tol)
}

// bracketBisect is the search over a monotone feasibility oracle: it
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
