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
// equals the capacity, yielding omega* = max_T omega_T (Lemma 2.2.3), by the
// same exact search as Chapter 4's LP (4.1) for broken-down fleets
// (FleetBound), and its cube form over a summed-area table
// (OmegaStarCubesPS).
package lpchar

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"repro/internal/demand"
	"repro/internal/grid"
)

// solverPool recycles Solvers across FleetBound calls, extending the
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
	if err := checkRadius(m.Dim(), r); err != nil {
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
// It is LP (4.1) for the healthy fleet, whose segments are [r, r+1): the
// search tests each radius r with one max-flow at supply r+1, and Value's
// Newton steps run at the final radius alone.
func OmegaStarFlow(m *demand.Map) (float64, error) {
	return FleetBound(m, 1, nil)
}

// FleetBound solves LP (4.1) of Theorem 4.1.1 for longevity def in [0,1] at
// every lattice point except where over lists one: the least omega at which
// each vehicle's supply p*omega within distance p*omega covers the demand,
// exact for 0/1 longevities and within about 1e-9 relative otherwise. No
// vehicle reaching the demand, a value past the float64 range, or a listed
// point off its lattice, is an error.
func FleetBound(m *demand.Map, def float64, over map[grid.Point]float64) (float64, error) {
	if m.Total() == 0 {
		return 0, nil
	}
	sol := solverPool.Get().(*Solver)
	v, err := sol.omegaStar(m, def, over)
	sol.fl.over = nil // the caller's map is not the pool's to keep
	solverPool.Put(sol)
	return v, err
}

// omegaStar is FleetBound on s, for a demand with positive total. The edge
// set changes only at breakpoints: k/def, where the default radius becomes
// k, and each listed vehicle's dist/p. On a segment [left, right) between
// two of them the LP value v is fixed; the answer is v clamped to [left,
// right] on the first segment whose max-flow at supply p_i*right saturates.
func (s *Solver) omegaStar(m *demand.Map, def float64, over map[grid.Point]float64) (float64, error) {
	s.fl = fleet{def: def, over: over, listed: s.fl.listed[:0], exact: def == 0 || def == 1}
	for x, p := range over {
		for a := m.Dim(); a < grid.MaxDim; a++ {
			if x[a] != 0 {
				return 0, fmt.Errorf("lpchar: a longevity is listed off the demand's %d-D lattice", m.Dim())
			}
		}
		if p > 0 {
			s.fl.listed = append(s.fl.listed, vehicle{x, p})
		}
		s.fl.exact = s.fl.exact && (p == 0 || p == 1)
	}
	slices.SortFunc(s.fl.listed, func(a, b vehicle) int { return a.at.Compare(b.at) })
	support := m.Support()
	// fits binds s at default radius r with the listed edges below reach
	// and reports whether supply p_i*reach saturates. The first error ends
	// the search: err keeps it, and every later probe fits at once.
	var err error
	bound, boundReach := -1, 0.0
	fits := func(r int, reach float64) bool {
		if err != nil {
			return true
		}
		if err = s.bind(m, r, reach, support); err != nil {
			return true
		}
		bound, boundReach = r, reach
		ok, serr := s.saturates(reach, 1)
		err = serr
		return ok || err != nil
	}
	// Find the default segment [r/def, (r+1)/def), or take [0, +Inf) without
	// a default class. Bracket from small radii: binding radius R costs
	// O(R^l), so probing near the (small) answer first matters.
	r, left, right := 0, 0.0, math.Inf(1)
	if def > 0 {
		end := func(r int) float64 { return float64(r+1) / def }
		hi := 1
		for !fits(hi, end(hi)) {
			hi *= 2
			if len(over) == 0 && int64(hi) > m.Max()+1 {
				break // LPvalue(r) <= max demand always, so this cannot recur
			}
		}
		r = sort.Search(hi, func(k int) bool { return fits(k, end(k)) })
		left, right = float64(r)/def, end(r)
	}
	// Then bisect the listed breakpoints inside that segment.
	s.cuts = s.cuts[:0]
	for _, x := range s.fl.listed {
		for _, q := range support {
			if b := x.breakpoint(q); left < b && b < right {
				s.cuts = append(s.cuts, b)
			}
		}
	}
	slices.Sort(s.cuts)
	s.cuts = slices.Compact(s.cuts)
	i := sort.Search(len(s.cuts), func(i int) bool { return fits(r, s.cuts[i]) })
	if i > 0 {
		left = s.cuts[i-1]
	}
	if i < len(s.cuts) {
		right = s.cuts[i]
	}
	if err == nil && (bound != r || boundReach != right) {
		err = s.bind(m, r, right, support)
	}
	if err != nil {
		return 0, err
	}
	v, err := s.Value()
	if err != nil {
		return 0, err
	}
	// The value is infinite when no vehicle reaches the demand: a fleet with
	// neither a default class nor a listed vehicle. Otherwise an infinite
	// omega is a finite value past float64, as when a default longevity
	// below about 1e-308 makes every segment end (r+1)/def overflow.
	if omega := min(max(v, left), right); !math.IsInf(omega, 1) {
		return omega, nil
	}
	if def == 0 && len(s.fl.listed) == 0 {
		return 0, errors.New("lpchar: no vehicle can reach the demand")
	}
	return 0, errors.New("lpchar: the LP (4.1) value exceeds the float64 range")
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
