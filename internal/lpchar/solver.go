package lpchar

import (
	"fmt"
	"math"

	"repro/internal/demand"
	"repro/internal/flow"
	"repro/internal/grid"
)

// Probe tolerances shared by the fresh oracle (Reset+MaxFlow) and the
// cut-certified probe path, hoisted so the two cannot drift.
// feasSlackRel/feasSlackAbs are the relative and absolute slack under
// which a probe treats the max flow as saturating the total demand;
// bisectMaxIters/bisectTolRel bound Value()'s bisection on omega.
const (
	feasSlackRel   = 1e-9
	feasSlackAbs   = 1e-9
	bisectMaxIters = 60
	bisectTolRel   = 1e-9
)

// probeGuardRel is the safety margin of the cut certificates: a probe is
// declared infeasible without running the oracle only when its retained-cut
// upper bound sits more than probeGuardRel*(1+total) below the saturation
// threshold. In exact arithmetic the bound dominates the max flow outright,
// so the guard only needs to absorb float slop: a couple of ulps in
// evaluating the bound (integer demands sum exactly in float64) plus the
// accumulated rounding by which the oracle's Dinic value can exceed the
// exact max flow — at most ~1e-11 on these magnitudes, since Dinic's Eps
// cutoff only ever pushes the value DOWN. 1e-8 relative keeps three orders
// of magnitude of headroom while leaving the guard band around the
// threshold narrow, which matters because every probe inside the band runs
// the full oracle: each factor of two of unnecessary width costs one
// un-certified bisection step. Every certified verdict equals the verdict
// the fresh computation would have produced, which is what keeps Value()'s
// bisection trajectory and output bit-identical to the from-scratch
// implementation.
const probeGuardRel = 1e-8

// maxSupplyBoxVolume bounds the dense offset index over the support's
// r-neighborhood bounding box. The suppliers themselves number at most
// |support| * ballVolume regardless of how the support is spread, so past
// this the dense array would be dominated by -1 padding (a spatially sparse
// instance) and the index falls back to a point-keyed map with the same
// discovery order — dense for the compact instances every hot path probes,
// never worse than the suppliers themselves for spread ones.
const maxSupplyBoxVolume = 1 << 22

// CheckRadius rejects, without allocating, a radius whose L1 ball cannot be
// listed: ballOffsets, like package broken's supplier scan, enumerates the
// ball through its (2r+1)^dim bounding box, so that box may hold at most
// maxSupplyBoxVolume points — which also keeps r far below the int32
// coordinate range that Box.Expand works in. The error wraps ErrTooLarge.
func CheckRadius(dim, r int) error {
	if r < 0 {
		return fmt.Errorf("lpchar: negative radius %d", r)
	}
	for i, vol := 0, 1; i < dim; i++ {
		if r > maxSupplyBoxVolume || vol > maxSupplyBoxVolume/(2*r+1) {
			return fmt.Errorf("%w: radius %d in %d-D scans more than %d ball points", ErrTooLarge, r, dim, maxSupplyBoxVolume)
		}
		vol *= 2*r + 1
	}
	return nil
}

// supplyIndex indexes the supply positions of LP (2.1): every lattice point
// within distance r of the demand support — N_r(support), exactly the
// vehicles that can participate — mapped to a dense supplier id. It is the
// one construction of that set: Solver.Bind turns it into a flow network and
// SubsetValue into Lemma 2.2.2's cover masks. For compact supports (all hot
// paths) the index is a []int32 over the r-neighborhood bounding box;
// supports whose bounding box is overwhelmingly empty fall back to a map,
// which discovers the suppliers in the same order without allocating the
// padding. Buffers are retained across builds so a warm rebind reuses them.
type supplyIndex struct {
	ix        grid.BoxIndex
	dense     bool
	id        []int32              // dense: supplier id per box offset, -1 when none
	idMap     map[grid.Point]int32 // sparse fallback: supplier id by point
	suppliers []grid.Point         // suppliers in discovery order (sorted support x ball order)
	// deltas caches the L1-ball offsets |delta|_1 <= r in the row-major
	// order NeighborhoodPoints produces, keyed by (dim, r).
	deltas             []grid.Point
	deltaDim, deltaRad int
}

// ballOffsets returns the L1-ball offsets for (dim, r), cached. The order is
// NeighborhoodPoints' row-major scan of the bounding box, which is
// translation-invariant — so enumerating q+delta visits exactly the points
// NeighborhoodPoints(box(q), r) would, in the same order.
func (si *supplyIndex) ballOffsets(dim, r int) ([]grid.Point, error) {
	if si.deltas != nil && si.deltaDim == dim && si.deltaRad == r {
		return si.deltas, nil
	}
	origin, err := grid.NewBox(dim, grid.Point{}, grid.Point{})
	if err != nil {
		return nil, err
	}
	si.deltas = grid.NeighborhoodPoints(origin, r)
	si.deltaDim, si.deltaRad = dim, r
	return si.deltas, nil
}

// build indexes the suppliers of (m, r). support must be m.Support() (passed
// in so callers that already have it avoid a second sort). The index is
// dense when the box volume is within maxSupplyBoxVolume and at most 8x the
// supplier bound |support| * |ball| (plus 1024 of slack); a volume that
// overflows int64 is by definition sparse.
func (si *supplyIndex) build(m *demand.Map, r int, support []grid.Point) error {
	bbox, ok := m.BoundingBox()
	if !ok {
		return fmt.Errorf("lpchar: empty support")
	}
	box := bbox.Expand(r)
	deltas, err := si.ballOffsets(m.Dim(), r)
	if err != nil {
		return err
	}
	// Both modes discover suppliers in the same order, so the built graph —
	// and every value computed from it — is identical either way.
	maxSuppliers := int64(len(support)) * int64(len(deltas))
	vol, err := box.VolumeChecked()
	si.dense = err == nil && vol <= maxSupplyBoxVolume && vol <= 1024+8*maxSuppliers
	si.suppliers = si.suppliers[:0]
	if si.dense {
		si.idMap = nil
		si.ix = grid.NewBoxIndex(box)
		if int64(cap(si.id)) < vol {
			si.id = make([]int32, vol)
		}
		si.id = si.id[:vol]
		for i := range si.id {
			si.id[i] = -1
		}
		for _, s := range support {
			for _, d := range deltas {
				p := s.Add(d)
				off := si.ix.Offset(p)
				if si.id[off] < 0 {
					si.id[off] = int32(len(si.suppliers))
					si.suppliers = append(si.suppliers, p)
				}
			}
		}
		return nil
	}
	si.id = si.id[:0]
	si.idMap = make(map[grid.Point]int32, maxSuppliers)
	for _, s := range support {
		for _, d := range deltas {
			p := s.Add(d)
			if _, seen := si.idMap[p]; !seen {
				si.idMap[p] = int32(len(si.suppliers))
				si.suppliers = append(si.suppliers, p)
			}
		}
	}
	return nil
}

// supplierAt returns the supplier id of p, or -1. In dense mode p must lie
// inside the indexed box (every point within r of the support does).
func (si *supplyIndex) supplierAt(p grid.Point) int32 {
	if si.dense {
		return si.id[si.ix.Offset(p)]
	}
	if id, ok := si.idMap[p]; ok {
		return id
	}
	return -1
}

// Solver answers LP (2.1) feasibility probes for one (demand, radius) pair
// without rebuilding anything: the supply graph is constructed once through
// the dense offset index, the source-edge ids are recorded, and a probe
// rewrites only those capacities before re-running max-flow on reset
// residual state. A probe allocates nothing; a full Value() is one
// construction plus ~60 warm probes (versus ~60 cold graph builds before).
//
// Solvers are rebindable: Bind(m, r) rebuilds the graph in place, reusing
// the network arrays and index buffers — the "one solver per worker" rule
// experiment sweeps follow, mirroring the online layer's one-runner-per-
// worker discipline. A Solver is not safe for concurrent use.
//
// Value() retains structure across the probes of its bisection (PR 7) — but
// the retained structure is the LP dual, not the primal flow. The max-flow
// value is a concave piecewise-linear function of omega, and any s-t cut
// bounds it from above at EVERY omega by fixed-capacity-crossing plus
// (source-edges-crossing * omega). Each infeasible oracle run leaves a
// minimum cut behind — the tangent line at that omega — which the solver
// keeps and uses to certify later infeasible probes without touching the
// flow network at all. Feasible probes always run the oracle: the LP's
// feasibility slack (1e-9-relative) is tighter than the float drift between
// any two augmentation orders, so a saturation verdict can only be taken
// from the canonical fresh computation. (A retained-primal ladder — raising
// source capacities in place and resuming augmentation on ascending omega —
// was measured here and lost: nearly every probe near the threshold had to
// re-run the fresh oracle anyway, and the resumes were pure overhead. The
// solver rides the dual.) Every probe's verdict equals
// the fresh Reset+MaxFlow verdict, so the bisection trajectory — and
// therefore Value()'s output — is bit-identical to the from-scratch ladder.
type Solver struct {
	total float64
	maxD  float64
	r     int
	src   int
	sink  int
	nw    *flow.Network
	// srcEdges[i] is the source edge of supplier i — the only capacities a
	// probe rewrites.
	srcEdges []int
	sup      supplyIndex
	// Instance handles for the cut certificate and the coarse bounds.
	m       *demand.Map
	support []grid.Point // bind-time support (sorted); demand j is support[j]
	demBase int          // node of demand j is demBase + j; supplier i is 1 + i
	cb      coarseBounds // radius-independent lower-bound witnesses
	// Retained cut certificate: the max flow at source capacity omega is at
	// most cutFix + cutSrc*omega (cutSrc source edges cross the cut at
	// capacity omega; cutFix is the demand capacity crossing elsewhere).
	// Captured from the minimum cut of the last infeasible oracle run; valid
	// for the bound graph structure, so Bind resets it. The all-sources cut
	// |srcEdges|*omega is always available alongside.
	cutOK  bool
	cutFix float64
	cutSrc float64
}

// NewSolver builds a warm-reusable solver for LP (2.1) on (m, r).
func NewSolver(m *demand.Map, r int) (*Solver, error) {
	s := new(Solver)
	if err := s.Bind(m, r); err != nil {
		return nil, err
	}
	return s, nil
}

// Bind (re)builds the solver for a new instance, reusing all retained
// storage. The resulting solver is indistinguishable from a freshly
// constructed one (TestSolverWarmEqualsCold pins this). A radius whose ball
// the supply index cannot list returns an error wrapping ErrTooLarge.
func (s *Solver) Bind(m *demand.Map, r int) error {
	if err := CheckRadius(m.Dim(), r); err != nil {
		return err
	}
	s.total = float64(m.Total())
	s.maxD = float64(m.Max())
	s.r = r
	s.m = m
	s.cutOK = false
	if s.total == 0 {
		// Clear per-instance state so no stale binding survives an empty
		// one.
		s.sup.suppliers = s.sup.suppliers[:0]
		s.srcEdges = s.srcEdges[:0]
		s.support = s.support[:0]
		return nil
	}
	support := m.Support()
	s.support = support
	if err := s.sup.build(m, r, support); err != nil {
		return err
	}
	// Node layout (identical to the pre-solver construction): 0 = source,
	// 1..len(suppliers) = suppliers, then demands, then sink.
	n := 2 + len(s.sup.suppliers) + len(support)
	if s.nw == nil {
		nw, err := flow.NewNetwork(n)
		if err != nil {
			return err
		}
		s.nw = nw
	} else if err := s.nw.Reinit(n); err != nil {
		return err
	}
	s.src, s.sink = 0, n-1
	s.demBase = 1 + len(s.sup.suppliers)
	s.srcEdges = s.srcEdges[:0]
	for i := range s.sup.suppliers {
		id, err := s.nw.AddEdge(s.src, 1+i, 0)
		if err != nil {
			return err
		}
		s.srcEdges = append(s.srcEdges, id)
	}
	deltas, err := s.sup.ballOffsets(m.Dim(), r)
	if err != nil {
		return err
	}
	for j, q := range support {
		dj := 1 + len(s.sup.suppliers) + j
		if _, err := s.nw.AddEdge(dj, s.sink, float64(m.At(q))); err != nil {
			return err
		}
		for _, d := range deltas {
			if si := s.sup.supplierAt(q.Add(d)); si >= 0 {
				if _, err := s.nw.AddEdge(1+int(si), dj, math.Inf(1)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// saturated is the feasibility verdict shared by the fresh and incremental
// paths: the max-flow value covers the total demand within slack.
func (s *Solver) saturated(val float64) bool {
	return val >= s.total*(1-feasSlackRel)-feasSlackAbs
}

// freshProbe is the canonical oracle computation: Reset to zero flow, set
// the source capacities, one full MaxFlow. Bit-identical to a cold solve.
func (s *Solver) freshProbe(omega float64) (float64, error) {
	s.nw.Reset()
	for _, id := range s.srcEdges {
		if err := s.nw.SetCapacity(id, omega); err != nil {
			return 0, err
		}
	}
	return s.nw.MaxFlow(s.src, s.sink)
}

// probe answers one bisection probe at omega > 0, returning exactly the
// verdict of the fresh oracle (pinned by TestLadderVerdictsMatchFresh and the
// golden E4 pins) while keeping certifiably infeasible probes off the flow
// network entirely: when the retained cut — or the trivial all-sources cut
// |srcEdges|*omega — bounds the achievable flow a full guard below the
// saturation threshold, no verdict can come out feasible and the oracle is
// skipped. Otherwise the fresh oracle runs, and an infeasible run donates
// its minimum cut as the new retained certificate — the tangent to the
// concave flow-value curve at the highest infeasible omega seen, which is
// exactly the line that prunes the remaining infeasible probes as the
// bisection closes in from below. A warm probe allocates nothing.
func (s *Solver) probe(omega float64) (bool, error) {
	thr := s.total*(1-feasSlackRel) - feasSlackAbs
	guard := probeGuardRel * (1 + s.total)
	bound := float64(len(s.srcEdges)) * omega
	if s.cutOK {
		if b := s.cutFix + s.cutSrc*omega; b < bound {
			bound = b
		}
	}
	if bound < thr-guard {
		return false, nil
	}
	val, err := s.freshProbe(omega)
	if err != nil {
		return false, err
	}
	if s.saturated(val) {
		return true, nil
	}
	s.adoptCut()
	return false, nil
}

// adoptCut captures the minimum cut the oracle's last (infeasible) run left
// behind: suppliers unreachable in the final residual BFS cross the cut on
// their omega-capacity source edge, reachable demands cross it on their
// demand edge. Within one bisection, lo only rises, so the newest cut —
// tangent at the highest infeasible omega so far — dominates every earlier
// one on all future probes and is adopted unconditionally.
func (s *Solver) adoptCut() {
	src := 0.0
	for i := range s.sup.suppliers {
		if !s.nw.MinCutReachable(1 + i) {
			src++
		}
	}
	fix := 0.0
	for j, q := range s.support {
		if s.nw.MinCutReachable(s.demBase + j) {
			fix += float64(s.m.At(q))
		}
	}
	s.cutFix, s.cutSrc = fix, src
	s.cutOK = true
}

// lowerBound returns the certified-infeasible threshold for the bound
// radius: probes strictly below it are guaranteed an infeasible verdict
// from the flow oracle, so Value() skips their flow solves entirely. The
// bound instance knows |N_r(support)| exactly — its supplier count — which
// sharpens the box witnesses' closed-form counts.
func (s *Solver) lowerBound() (float64, error) {
	if err := s.cb.ensure(s.m); err != nil {
		return 0, err
	}
	lb := s.cb.lowerAt(float64(s.r))
	if n := len(s.sup.suppliers); n > 0 {
		if v := s.total/float64(n) - s.cb.margin(); v > lb {
			lb = v
		}
	}
	return lb, nil
}

// Value computes the exact value of LP (2.1) for the bound instance by
// binary search on omega. Probes below the coarse witness bound and probes
// pruned by the retained cut certificates never run the flow oracle;
// because every probe's verdict matches the fresh Reset+MaxFlow oracle, the
// bisection trajectory and the returned value are bit-identical to the
// pre-incremental implementation.
func (s *Solver) Value() (float64, error) {
	if s.total == 0 {
		return 0, nil
	}
	lb, err := s.lowerBound()
	if err != nil {
		return 0, err
	}
	lo, hi := 0.0, s.maxD
	// max_j d(j) is always feasible (each point serves itself), so hi works.
	for iter := 0; iter < bisectMaxIters && hi-lo > bisectTolRel*math.Max(1, hi); iter++ {
		mid := (lo + hi) / 2
		if mid < lb {
			// Certified infeasible: the deficit at mid exceeds the
			// feasibility slack by the safety margin, so the oracle's
			// verdict is known without running it.
			lo = mid
			continue
		}
		ok, err := s.probe(mid)
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
