// Package baseline provides comparison strategies for CMVRP: a centralized
// greedy nearest-vehicle dispatcher (the natural heuristic a practitioner
// would try first) and a no-movement strawman. The thesis' online strategy
// is compared against these in experiment E7's ablation: greedy needs
// capacity that can exceed the thesis strategy's by more than a constant on
// adversarial workloads, because it drains the vehicles nearest a hot spot
// before recruiting farther ones evenly.
package baseline

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/demand"
	"repro/internal/grid"
)

// GreedyResult reports a greedy run's outcome.
type GreedyResult struct {
	Served    int64
	Failed    int64
	MaxEnergy float64
}

// OK reports whether every job was served.
func (r *GreedyResult) OK() bool { return r.Failed == 0 }

// errNoArena is the error of a greedy run or search without an arena.
var errNoArena = errors.New("baseline: arena is required")

// Greedy simulates the centralized nearest-available dispatcher: each
// arrival is served by the vehicle (one per arena cell initially) whose
// current position is closest among those with enough remaining energy to
// walk there and serve; the vehicle remains at the job site. Ties break by
// arena index for determinism.
func Greedy(seq *demand.Sequence, arena *grid.Grid, capacity float64) (*GreedyResult, error) {
	if arena == nil {
		return nil, errNoArena
	}
	res, err := greedy(seq, arena, capacity, make([]vehicle, arena.Len()), false)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// vehicle is one greedy vehicle: where it stands and the energy it spent.
type vehicle struct {
	pos  grid.Point
	used float64
}

// greedy is Greedy's dispatch loop on the caller's vehicle buffer, one entry
// per arena cell, which it resets to a fresh vehicle at each cell before the
// first arrival.
// With stopAtFailure it returns at the first unserved job, the rest of the
// sequence unplayed: no later arrival can make the run feasible again.
func greedy(seq *demand.Sequence, arena *grid.Grid, capacity float64, vehicles []vehicle, stopAtFailure bool) (GreedyResult, error) {
	if seq == nil {
		return GreedyResult{}, errors.New("baseline: arrival sequence is required")
	}
	// NaN and +Inf would make every energy test below false, serving every
	// job with unlimited energy.
	if !(capacity > 0) || math.IsInf(capacity, 1) {
		return GreedyResult{}, fmt.Errorf("baseline: capacity %v must be positive and finite", capacity)
	}
	for idx := range vehicles {
		vehicles[idx] = vehicle{pos: arena.PointAt(int64(idx))}
	}
	var res GreedyResult
	for i := 0; i < seq.Len(); i++ {
		pos := seq.At(i)
		if !arena.Contains(pos) {
			return GreedyResult{}, fmt.Errorf("baseline: arrival %v outside arena", pos)
		}
		best := -1
		bestDist := math.MaxInt64
		for vi := range vehicles {
			v := &vehicles[vi]
			d := grid.Manhattan(v.pos, pos)
			if float64(d)+1 > capacity-v.used {
				continue
			}
			if d < bestDist {
				bestDist, best = d, vi
			}
		}
		if best < 0 {
			res.Failed++
			if stopAtFailure {
				return res, nil
			}
			continue
		}
		v := &vehicles[best]
		v.used += float64(bestDist) + 1
		v.pos = pos
		res.Served++
		if v.used > res.MaxEnergy {
			res.MaxEnergy = v.used
		}
	}
	return res, nil
}

// GreedyMinCapacity measures the smallest capacity (within relative tol) for
// which Greedy serves the whole sequence, by grid.Least on the bracket
// [1, 2], so capacity 1 itself is never probed. tol must be finite and at
// least 2^-52.
//
// Every probe runs on one vehicle buffer sized for the search, and an
// infeasible probe stops at its first unserved job; a feasible one plays the
// whole sequence, as Greedy does. So an error that an infeasible probe would
// raise only after its first unserved job, a later arrival outside the
// arena, is not reached by that probe.
func GreedyMinCapacity(seq *demand.Sequence, arena *grid.Grid, tol float64) (float64, error) {
	if arena == nil {
		return 0, errNoArena
	}
	vehicles := make([]vehicle, arena.Len())
	return grid.Least(func(w float64) (bool, error) {
		r, err := greedy(seq, arena, w, vehicles, true)
		return r.OK(), err
	}, 1, 2, tol)
}
