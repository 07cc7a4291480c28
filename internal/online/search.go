package online

import (
	"fmt"
	"math"

	"repro/internal/demand"
	"repro/internal/grid"
)

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

// MinCapacity measures the empirical Won for a sequence: the smallest
// capacity (within tol, relative) for which the strategy serves every job
// with no failed search, by grid.Least with the bracket starting at [lo, lo]:
// it grows exponentially from lo until a run succeeds, and no capacity is
// probed twice. All probes reuse one Runner, reset per probe, and so one
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
	// NaN slips past the serveCost clamp and -Inf would become serveCost,
	// so a non-finite start is refused before the clamp.
	if math.IsNaN(lo) || math.IsInf(lo, 0) {
		return 0, fmt.Errorf("online: search start capacity %v must be finite", lo)
	}
	if lo < serveCost {
		lo = serveCost
	}
	p := &prober{seq: seq, base: base}
	return grid.Least(p.probe, lo, lo, tol)
}
