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

// Greedy simulates the centralized nearest-available dispatcher: each
// arrival is served by the vehicle (one per arena cell initially) whose
// current position is closest among those with enough remaining energy to
// walk there and serve; the vehicle remains at the job site. Ties break by
// arena index for determinism.
func Greedy(seq *demand.Sequence, arena *grid.Grid, capacity float64) (*GreedyResult, error) {
	if arena == nil {
		return nil, errors.New("baseline: arena is required")
	}
	if seq == nil {
		return nil, errors.New("baseline: arrival sequence is required")
	}
	// NaN and +Inf would make every energy test below false, serving every
	// job with unlimited energy.
	if !(capacity > 0) || math.IsInf(capacity, 1) {
		return nil, fmt.Errorf("baseline: capacity %v must be positive and finite", capacity)
	}
	type veh struct {
		pos  grid.Point
		used float64
	}
	vehicles := make([]veh, arena.Len())
	for idx := int64(0); idx < arena.Len(); idx++ {
		vehicles[idx] = veh{pos: arena.PointAt(idx)}
	}
	res := &GreedyResult{}
	for i := 0; i < seq.Len(); i++ {
		pos := seq.At(i)
		if !arena.Contains(pos) {
			return nil, fmt.Errorf("baseline: arrival %v outside arena", pos)
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

// minTol is the finest relative tolerance GreedyMinCapacity's bisection can
// meet: once the bracket is one ulp wide the midpoint stops moving, so a
// smaller tol would bisect forever.
const minTol = 0x1p-52

// GreedyMinCapacity measures the smallest capacity (within relative tol) for
// which Greedy serves the whole sequence. tol must be finite and at least
// 2^-52; a NaN tol would skip the bisection entirely.
func GreedyMinCapacity(seq *demand.Sequence, arena *grid.Grid, tol float64) (float64, error) {
	if !(tol >= minTol) || math.IsInf(tol, 1) {
		return 0, fmt.Errorf("baseline: tolerance %v must be finite and at least 2^-52", tol)
	}
	run := func(w float64) (bool, error) {
		r, err := Greedy(seq, arena, w)
		if err != nil {
			return false, err
		}
		return r.OK(), nil
	}
	lo, hi := 1.0, 2.0
	for {
		ok, err := run(hi)
		if err != nil {
			return 0, err
		}
		if ok {
			break
		}
		hi *= 2
		if hi > 1e12 {
			return 0, errors.New("baseline: no feasible greedy capacity below 1e12")
		}
	}
	for hi-lo > tol*math.Max(1, hi) {
		mid := (lo + hi) / 2
		ok, err := run(mid)
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

// LocalOnly returns the capacity required when vehicles cannot move at all:
// exactly the maximum demand D (thesis Property 2.3.2's regime). The gap
// between this and Woff quantifies the value of mobility.
func LocalOnly(m *demand.Map) float64 {
	return float64(m.Max())
}
