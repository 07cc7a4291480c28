// Package lpchar computes the value of the thesis' linear program (2.1) —
// the minimal vehicle capacity omega that lets supply omega at every lattice
// point cover the demand d(j) when transports are limited to radius r. The
// production route is Solver: Newton's method on the minimum cut of a Dinic
// max-flow, exact in integer arithmetic, which returns Lemma 2.2.2's
// d(T)/|N_r(T)| for the maximizing subset T. Two independent routes check
// it:
//
//  1. SubsetValue: Lemma 2.2.2's closed form max_T sum(d)/|N_r(T)| by
//     brute-force enumeration of subsets T of the demand support (exact,
//     tiny instances only);
//  2. MaxOverBoxes: the same maximization restricted to axis-aligned boxes,
//     with the closed-form neighborhood count (a lower bound; Corollary
//     2.2.6's family enlarged from cubes).
//
// Agreement of Solver.Value and SubsetValue on random instances is the
// reproduction of the duality chain Lemmas 2.2.1-2.2.3 (experiment E4). The
// package also solves the self-consistent program (2.8), where the radius
// equals the capacity, yielding omega* = max_T omega_T (Lemma 2.2.3), and its
// cube form over a summed-area table (OmegaStarCubesPS).
package lpchar

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/demand"
	"repro/internal/grid"
)

// solverPool recycles Solvers across OmegaStarFlow calls, extending the
// sweep workers' one-solver-per-worker discipline to callers without a
// natural place to retain one: network arrays and supply index buffers
// survive between calls. Rebinding a pooled solver is pinned
// indistinguishable from constructing a fresh one (TestSolverWarmEqualsCold),
// so results are unaffected.
var solverPool = sync.Pool{New: func() any { return new(Solver) }}

// ErrTooLarge is returned when an instance exceeds a solver's exact-method
// limits (subset enumeration, dense supply graphs).
var ErrTooLarge = errors.New("lpchar: instance too large for exact method")

// maxSubsetSupport bounds SubsetValue's 2^k enumeration.
const maxSubsetSupport = 18

// SubsetValue computes max over all subsets T of the support of
// sum_{x in T} d(x) / |N_r(T)| — the closed form of Lemma 2.2.2 — by exact
// enumeration. Only the support matters: adding a zero-demand point to T
// leaves the numerator unchanged and can only grow the denominator.
func SubsetValue(m *demand.Map, r int) (float64, error) {
	support := m.Support()
	k := len(support)
	if k == 0 {
		return 0, nil
	}
	if k > maxSubsetSupport {
		return 0, fmt.Errorf("%w: support %d > %d", ErrTooLarge, k, maxSubsetSupport)
	}
	if err := CheckRadius(m.Dim(), r); err != nil {
		return 0, err
	}
	// For each supplier p in N_r(support), record the bitmask of support
	// points within distance r. |N_r(T)| = number of suppliers whose mask
	// intersects T = total - #suppliers whose mask avoids T, and the
	// avoid-counts come from a subset-sum (SOS) transform. The suppliers and
	// their ids come from the supply index Solver.Bind builds its network
	// from; the slice is sized for the most suppliers the balls can hold, so
	// the one-shot build appends without regrowing.
	var si supplyIndex
	deltas := si.ballOffsets(m.Dim(), r)
	si.suppliers = make([]grid.Point, 0, k*len(deltas))
	if err := si.build(m, r, support); err != nil {
		return 0, err
	}
	cover := make([]uint32, len(si.suppliers))
	for i, s := range support {
		for _, d := range deltas {
			cover[si.supplierAt(s.Add(d))] |= 1 << i
		}
	}
	cnt := make([]int64, 1<<k)
	for _, mask := range cover {
		cnt[mask]++
	}
	totalPoints := int64(len(cover))
	// f[S] = number of points whose mask is a subset of S.
	f := make([]int64, 1<<k)
	copy(f, cnt)
	for bit := 0; bit < k; bit++ {
		for s := 0; s < 1<<k; s++ {
			if s&(1<<bit) != 0 {
				f[s] += f[s&^(1<<bit)]
			}
		}
	}
	demands := make([]int64, k)
	for i, s := range support {
		demands[i] = m.At(s)
	}
	full := (1 << k) - 1
	best := 0.0
	for tmask := 1; tmask <= full; tmask++ {
		neigh := totalPoints - f[full^tmask]
		if neigh == 0 {
			continue
		}
		var dsum int64
		for mm := tmask; mm != 0; mm &= mm - 1 {
			dsum += demands[bits.TrailingZeros32(uint32(mm))]
		}
		if v := float64(dsum) / float64(neigh); v > best {
			best = v
		}
	}
	return best, nil
}

// MaxOverBoxes maximizes sum(d in T)/|N_r(T)| over all axis-aligned boxes T
// inside the support's bounding box, using the exact closed-form
// neighborhood count. This realizes Corollary 2.2.6's simpler family
// (enlarged from cubes to all boxes, still a lower bound on the subset max).
func MaxOverBoxes(m *demand.Map, r int) (float64, grid.Box, error) {
	bbox, ok := m.BoundingBox()
	if !ok {
		return 0, grid.Box{}, nil
	}
	if bbox.Volume() > 1<<14 {
		return 0, grid.Box{}, fmt.Errorf("%w: bbox volume %d", ErrTooLarge, bbox.Volume())
	}
	best := 0.0
	var bestBox grid.Box
	dim := m.Dim()
	var lo, hi grid.Point
	var rec func(axis int)
	rec = func(axis int) {
		if axis == dim {
			b, err := grid.NewBox(dim, lo, hi)
			if err != nil {
				return
			}
			dsum := m.SumIn(b)
			if dsum == 0 {
				return
			}
			neigh := grid.NeighborhoodCountFloat(b, float64(r))
			if v := float64(dsum) / neigh; v > best {
				best, bestBox = v, b
			}
			return
		}
		for a := bbox.Lo[axis]; a <= bbox.Hi[axis]; a++ {
			for b := a; b <= bbox.Hi[axis]; b++ {
				lo[axis], hi[axis] = a, b
				rec(axis + 1)
			}
		}
		lo[axis], hi[axis] = 0, 0
	}
	rec(0)
	return best, bestBox, nil
}

// OmegaStarFlow solves the self-consistent program (2.8) — radius equals
// capacity — exactly: the unique omega with omega = LPvalue(r=floor(omega)).
// LPvalue(r) is non-increasing in r (Lemma 2.2.3's proof), so g(r) =
// LPvalue(r) - r is strictly decreasing and a binary search on the integer
// radius bracket followed by one LP evaluation pins the fixed point.
//
// One pooled solver, rebound per radius, serves the whole search, and the
// support is sorted once. The search only asks whether LPvalue(r) <= r+1,
// which one max-flow with supply r+1 at every supplier answers exactly;
// Value's Newton steps run at the final radius alone.
func OmegaStarFlow(m *demand.Map) (float64, error) {
	if m.Total() == 0 {
		return 0, nil
	}
	sol := solverPool.Get().(*Solver)
	defer solverPool.Put(sol)
	return sol.omegaStar(m)
}

// omegaStar is OmegaStarFlow on s, for a demand with positive total; it
// leaves s bound to m at the final radius.
func (s *Solver) omegaStar(m *demand.Map) (float64, error) {
	support := m.Support()
	// fits binds s at radius r and reports whether LPvalue(r) <= r+1;
	// bound remembers the radius s is bound at.
	bound := -1
	fits := func(r int) (bool, error) {
		if err := s.bind(m, r, support); err != nil {
			return false, err
		}
		bound = r
		return s.saturates(int64(r+1), 1)
	}
	// Find smallest integer R with LPvalue(R) <= R+1; the fixed point lies
	// in radius segment [R, R+1). Bracket exponentially from small radii:
	// evaluating the LP at radius R costs O(R^l) supplier enumeration, so
	// probing near the (small) fixed point first matters enormously for
	// concentrated demands.
	hi := 1
	for {
		ok, err := fits(hi)
		if err != nil {
			return 0, err
		}
		if ok {
			break
		}
		hi *= 2
		if int64(hi) > m.Max()+1 {
			break // LPvalue(r) <= max demand always, so this cannot recur
		}
	}
	lo := 0
	for lo < hi {
		mid := (lo + hi) / 2
		ok, err := fits(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	r := lo
	if bound != r {
		if err := s.bind(m, r, support); err != nil {
			return 0, err
		}
	}
	v, err := s.Value()
	if err != nil {
		return 0, err
	}
	// Within the segment the LP value is the constant v (radius floor(omega)
	// = r); the self-consistent solution is omega = v clamped to [r, r+1].
	return min(max(v, float64(r)), float64(r+1)), nil
}

// OmegaStarCubesPS computes max over all cubes T (every side length s >= 1,
// every position inside the table's arena) of omega_T, the cube form of the
// thesis' lower bound (Corollaries 2.2.4 + 2.2.6). For a fixed side length
// only the maximal cube sum matters, because omega_T is monotone in the
// demand for a fixed shape, so one sweep of the shared summed-area table per
// side length suffices (offline.Dense.Prefix builds it once per pipeline).
func OmegaStarCubesPS(ps *grid.PrefixSum) (float64, error) {
	return cubeOmegaScan(ps, func(s int) int { return s + 1 })
}

// OmegaStarCubesDoublingPS is OmegaStarCubesPS restricted to power-of-two
// side lengths — the granularity Algorithm 1 actually inspects. Exposed for
// the ablation comparing full against doubling granularity.
func OmegaStarCubesDoublingPS(ps *grid.PrefixSum) (float64, error) {
	return cubeOmegaScan(ps, func(s int) int { return s * 2 })
}

// cubeOmegaScan is the shared core of the cube omega* variants: walk side
// lengths per the step rule, take each side's maximal cube sum from the
// table, and solve the omega_T equation for it.
func cubeOmegaScan(ps *grid.PrefixSum, step func(int) int) (float64, error) {
	arena := ps.Grid()
	best := 0.0
	for s := 1; s <= arena.MinSize(); s = step(s) {
		sum := ps.MaxCubeSum(s)
		if sum <= 0 {
			continue
		}
		cube, err := grid.Cube(arena.Dim(), grid.Point{}, s)
		if err != nil {
			return 0, err
		}
		if w := grid.SolveOmega(cube, float64(sum)); w > best {
			best = w
		}
	}
	return best, nil
}
