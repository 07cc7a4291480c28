package lpchar

import (
	"fmt"

	"repro/internal/demand"
	"repro/internal/grid"
)

// boundSafetyRel sets the retreat margin of the coarse lower bound: a probe
// omega is certified infeasible — skipped without touching the flow network —
// only when it sits at least margin() = boundSafetyRel*(1+total) below a
// witness bound. By LP duality the flow deficit at such an omega is at least
// the margin, three orders of magnitude above the feasibility slack
// feasSlackRel*total+feasSlackAbs the oracle accepts, so a pruned probe's
// verdict provably equals the fresh Reset+MaxFlow verdict: pruning can
// reorder no bisection decision.
const boundSafetyRel = 1e-6

// maxBoundBoxVolume caps the densification the cube-witness scan performs.
// Larger supports keep the densification-free witnesses (heaviest point,
// whole support) and simply prune less.
const maxBoundBoxVolume = 1 << 20

// boundWitness is one subset T of the demand support with its neighborhood
// count precompiled: LPvalue(r) >= sum_T / |N_r(T)| for every radius
// (Lemma 2.2.2), so one witness serves every rung of every radius's ladder.
// The stored polynomial is that of a box containing T, whose count dominates
// |N_r(T)| — the quotient stays a valid lower bound.
type boundWitness struct {
	sum   float64
	neigh grid.NeighborhoodPoly
}

// coarseBounds aggregates radius-independent lower-bound witnesses for one
// demand instance: the heaviest single point, the whole support, and the
// max-sum cube at each doubling side length (one densification + prefix sum
// over the support bounding box, shared by every radius OmegaStarFlow
// visits). lowerAt turns them into a certified-infeasible threshold for a
// concrete radius.
type coarseBounds struct {
	built     bool
	m         *demand.Map
	total     int64
	points    int
	bbox      grid.Box
	witnesses []boundWitness
}

// matches reports whether the built witnesses describe m's current state.
// The pointer alone is not enough — a Map is mutable — so the cheap
// invariants (total, support size, bounding box) are rechecked; none of the
// checks allocate, keeping warm Value() calls off the heap.
func (cb *coarseBounds) matches(m *demand.Map) bool {
	if !cb.built || cb.m != m || cb.total != m.Total() || cb.points != m.SupportSize() {
		return false
	}
	if cb.total == 0 {
		return true
	}
	bbox, ok := m.BoundingBox()
	return ok && bbox == cb.bbox
}

// ensure (re)builds the witnesses when the bound instance changed.
func (cb *coarseBounds) ensure(m *demand.Map) error {
	if cb.matches(m) {
		return nil
	}
	return cb.build(m)
}

// build collects the witnesses for m.
func (cb *coarseBounds) build(m *demand.Map) error {
	cb.built = false
	cb.witnesses = cb.witnesses[:0]
	cb.m, cb.total, cb.points = m, m.Total(), m.SupportSize()
	if cb.total == 0 {
		cb.built = true
		return nil
	}
	bbox, ok := m.BoundingBox()
	if !ok {
		return fmt.Errorf("lpchar: empty support with nonzero total")
	}
	cb.bbox = bbox
	dim := m.Dim()
	unit, err := grid.Cube(dim, grid.Point{}, 1)
	if err != nil {
		return err
	}
	// Heaviest single point: T = {argmax d}.
	cb.witnesses = append(cb.witnesses, boundWitness{
		sum:   float64(m.Max()),
		neigh: grid.CompileNeighborhood(unit),
	})
	// Whole support: T = supp(d), boxed by its bounding box.
	cb.witnesses = append(cb.witnesses, boundWitness{
		sum:   float64(cb.total),
		neigh: grid.CompileNeighborhood(bbox),
	})
	// Max-sum cubes at doubling side lengths. Skipped — not failed — when
	// the bounding box is too large to densify; the witnesses above need no
	// densification. Clamping a cube into the box never loses demand, so the
	// in-box maximum is the lattice-wide maximum for each side.
	vol, err := bbox.VolumeChecked()
	if err != nil || vol > maxBoundBoxVolume {
		cb.built = true
		return nil
	}
	sizes := make([]int, dim)
	for i := 0; i < dim; i++ {
		sizes[i] = int(bbox.Side(i))
	}
	g, err := grid.New(sizes...)
	if err != nil {
		return err
	}
	vals := make([]int64, g.Len())
	for _, p := range m.Support() {
		vals[g.Index(p.Sub(bbox.Lo))] = m.At(p)
	}
	ps, err := grid.NewPrefixSum(g, vals)
	if err != nil {
		return err
	}
	for s := 1; s <= g.MinSize(); s *= 2 {
		sum := ps.MaxCubeSum(s)
		if sum <= 0 {
			continue
		}
		cube, err := grid.Cube(dim, grid.Point{}, s)
		if err != nil {
			return err
		}
		cb.witnesses = append(cb.witnesses, boundWitness{
			sum:   float64(sum),
			neigh: grid.CompileNeighborhood(cube),
		})
	}
	cb.built = true
	return nil
}

// margin is the safety gap between a witness bound and the threshold it may
// veto probes at.
func (cb *coarseBounds) margin() float64 {
	return boundSafetyRel * (1 + float64(cb.total))
}

// lowerAt returns the certified-infeasible threshold for radius r: the flow
// oracle's verdict at every omega strictly below the returned value is
// guaranteed infeasible. Allocation-free.
func (cb *coarseBounds) lowerAt(r float64) float64 {
	best := 0.0
	for i := range cb.witnesses {
		w := &cb.witnesses[i]
		if n := w.neigh.Count(r); n > 0 {
			if v := w.sum / n; v > best {
				best = v
			}
		}
	}
	return best - cb.margin()
}
