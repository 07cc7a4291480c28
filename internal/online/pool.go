package online

import "repro/internal/grid"

// poolKey is the geometry identity of a pooled runner: everything a Runner
// cannot change via ResetEpisode. Arena is compared by pointer — the same
// discipline Options.Partition validation uses — so scenarios must share one
// *grid.Grid value to share warm runners.
type poolKey struct {
	arena    *grid.Grid
	cubeSide int
}

// PoolStats is a Pool's construction/reuse split.
type PoolStats struct {
	// Builds counts NewRunner constructions — each one builds a Partition
	// unless the options carried a prebuilt one.
	Builds int
	// Resets counts warm ResetEpisode reuses (construction-free episodes).
	Resets int
}

// Pool is a cache of long-lived warm Runners keyed by geometry — the
// reuse unit of the sweep engine's workers (package sweep) and of the
// capacity search (MinCapacity, which recycles its pools across calls).
// Scenarios that share an arena and cube side hit ResetEpisode on one pooled
// runner, so every structure NewRunner builds (partition, vehicles, diffusion
// engines, the simulator's link tables and ring buffers) is constructed once
// per geometry per pool; a geometry change builds — and from then on also
// pools — a new runner. A Pool is confined to one goroutine, like the Runners
// it holds; concurrent workers hold separate pools and may share only the
// immutable Partition carried in Options.Partition.
type Pool struct {
	runners map[poolKey]*Runner
	stats   PoolStats
}

// NewPool creates an empty runner pool.
func NewPool() *Pool {
	return &Pool{runners: make(map[poolKey]*Runner)}
}

// Get returns a runner ready to play one episode under opts: a pooled runner
// of the same geometry warm-reset via ResetEpisode when one exists, a fresh
// NewRunner (which joins the pool) otherwise. The runner stays owned by the
// pool — callers play the episode and let the next Get reclaim it.
func (p *Pool) Get(opts Options) (*Runner, error) {
	key := poolKey{arena: opts.Arena, cubeSide: opts.side()}
	if r, ok := p.runners[key]; ok {
		if err := r.ResetEpisode(opts); err != nil {
			return nil, err
		}
		p.stats.Resets++
		return r, nil
	}
	r, err := NewRunner(opts)
	if err != nil {
		return nil, err
	}
	p.runners[key] = r
	p.stats.Builds++
	return r, nil
}

// Stats returns the pool's construction/reuse counters.
func (p *Pool) Stats() PoolStats { return p.stats }

// keepArena empties the pool unless every runner it holds was built on
// arena, so a pool that serves one caller after another holds one arena's
// runners at most.
func (p *Pool) keepArena(arena *grid.Grid) {
	for k := range p.runners {
		if k.arena != arena {
			clear(p.runners)
			return
		}
	}
}

// release drops every pooled runner's references to its last caller's
// objects, the Tracer, FailureModel, Fleet and Partition in its options, so
// the pool keeps only geometry between calls. Get re-arms a runner with
// ResetEpisode, which sets them anew.
func (p *Pool) release() {
	for _, r := range p.runners {
		r.opts.Tracer, r.opts.Failure, r.opts.Fleet, r.opts.Partition = nil, nil, nil, nil
	}
}
