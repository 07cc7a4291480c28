package online

import (
	"sync"

	"repro/internal/demand"
	"repro/internal/grid"
)

// searchPools recycles runner pools across MinCapacity calls, as lpchar's
// solverPool recycles LP solvers. Each pool holds one arena's runners
// (Pool.keepArena) and none of its last caller's objects (Pool.release), and
// an idle one lasts until garbage collection empties sync.Pool. ResetEpisode
// is pinned bit-for-bit equal to NewRunner, so no result depends on which
// pool a search gets or what it holds.
var searchPools = sync.Pool{New: func() any { return NewPool() }}

// prober is the warm-started feasibility oracle of the capacity search:
// does the strategy serve the whole sequence at capacity w with no failed
// replacement searches? Its first probe takes a runner from the search's
// Pool — warm-reset by ResetEpisode when the pool holds one of the same
// geometry, built otherwise — and every later probe Resets that runner, so
// the partition, vehicles, diffusion engines, and the simulator's link
// tables and ring buffers are built at most once per search. A probe stops
// at the first arrival that leaves a failure or a failed search, since no
// later arrival can undo either, and reads its verdict from the runner.
type prober struct {
	seq  *demand.Sequence
	base Options
	pool *Pool
	r    *Runner
}

func (p *prober) probe(w float64) (bool, error) {
	if p.r == nil {
		opts := p.base
		opts.Capacity = w
		r, err := p.pool.Get(opts)
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
// with no failed search, by grid.Least with the bracket starting at
// [serveCost, serveCost]: it grows exponentially from the cost of one
// service until a run succeeds, and no capacity is probed twice. All probes
// reuse one Runner, reset per probe. The runner comes from a pool that
// searches share across calls, keyed like the sweep's by geometry (arena
// pointer and cube side), so repeated searches that share one *grid.Grid
// and cube side build nothing; a search on another arena empties the pool
// first. The answer depends only on the inputs.
//
// An infeasible probe stops at the first arrival that leaves a failure or a
// failed search, after that arrival's quiescence and monitor round; a
// feasible one plays the whole sequence, as Runner.Run does. So an error
// that an infeasible probe would raise only after its first failure, such
// as a step-limit livelock or a later arrival outside the arena, is not
// reached, and a base.Tracer sees each infeasible probe only up to its
// first failure.
func MinCapacity(seq *demand.Sequence, base Options, tol float64) (float64, error) {
	pool := searchPools.Get().(*Pool)
	won, err := minCapacity(pool, seq, base, tol)
	searchPools.Put(pool)
	return won, err
}

// minCapacity is MinCapacity on a caller's pool. It keeps only base.Arena's
// runners in the pool and, before returning, drops the runners' references
// to base's Tracer, FailureModel, Fleet and Partition.
func minCapacity(pool *Pool, seq *demand.Sequence, base Options, tol float64) (float64, error) {
	pool.keepArena(base.Arena)
	p := &prober{seq: seq, base: base, pool: pool}
	won, err := grid.Least(p.probe, serveCost, serveCost, tol)
	pool.release()
	return won, err
}
