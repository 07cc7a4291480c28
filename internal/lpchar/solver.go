package lpchar

import (
	"fmt"
	"math"

	"repro/internal/demand"
	"repro/internal/flow"
	"repro/internal/grid"
)

// maxSupplyBoxVolume bounds the dense offset index over the support's
// r-neighborhood bounding box. The suppliers themselves number at most
// |support| * ballVolume regardless of how the support is spread, so past
// this the dense array would be dominated by -1 padding (a spatially sparse
// instance) and the index falls back to a point-keyed map with the same
// discovery order — dense for the compact instances every hot path probes,
// never worse than the suppliers themselves for spread ones.
const maxSupplyBoxVolume = 1 << 22

// checkRadius rejects, without allocating, a ball grid.AppendBall cannot
// list: a dimension outside [1, grid.MaxDim], a negative radius, or a radius
// whose ball is too large, because its (2r+1)^dim bounding box holds more
// than maxSupplyBoxVolume points, which also keeps r far below the int32
// coordinate range that Box.Expand works in. Only the last error wraps
// ErrTooLarge.
func checkRadius(dim, r int) error {
	if dim < 1 || dim > grid.MaxDim {
		return fmt.Errorf("lpchar: dimension %d out of range [1,%d]", dim, grid.MaxDim)
	}
	if r < 0 {
		return fmt.Errorf("lpchar: negative radius %d", r)
	}
	for i, vol := 0, 1; i < dim; i++ {
		if r > maxSupplyBoxVolume || vol > maxSupplyBoxVolume/(2*r+1) {
			return fmt.Errorf("%w: radius %d in %d-D: the ball's bounding box holds more than %d points", ErrTooLarge, r, dim, maxSupplyBoxVolume)
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
	// deltas holds the L1-ball offsets |delta|_1 <= r of (deltaDim,
	// deltaRad) in grid.AppendBall's row-major order; a new radius relists
	// them into the same buffer.
	deltas             []grid.Point
	deltaDim, deltaRad int
}

// ballOffsets returns the L1-ball offsets for (dim, r). Their row-major order
// is translation-invariant, so enumerating q+delta visits N_r(q) in the
// order of a scan of its bounding box.
func (si *supplyIndex) ballOffsets(dim, r int) []grid.Point {
	if si.deltas == nil || si.deltaDim != dim || si.deltaRad != r {
		si.deltas = grid.AppendBall(si.deltas[:0], dim, r)
		si.deltaDim, si.deltaRad = dim, r
	}
	return si.deltas
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
	deltas := si.ballOffsets(m.Dim(), r)
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

// Solver computes LP (2.1) for one (demand, radius) pair exactly, by
// Newton's (Dinkelbach's) method on the minimum cut of one supply network:
// source -> supplier i -> demand j within distance r -> sink. Lemma 2.2.2
// gives the value as max_T d(T)/|N_r(T)| over subsets T of the support, and
// every max-flow that falls short of the demand names a subset with a larger
// ratio in its minimum cut, so Value steps from witness to witness until a
// max-flow saturates. Inside omegaStar the network carries an LP (4.1)
// fleet: each supply is scaled by the supplier's longevity, and |N_r(T)|
// becomes the summed longevity of T's suppliers.
//
// Solvers are rebindable: Bind(m, r) rebuilds the network in place, reusing
// the network arrays and index buffers — the "one solver per worker" rule
// experiment sweeps follow, mirroring the online layer's one-runner-per-
// worker discipline. A Solver is not safe for concurrent use.
type Solver struct {
	total int64
	nw    *flow.Network
	fl    fleet
	// srcEdges[i] is the source edge of supplier i (node 1+i), of longevity
	// weights[i]: the supply index's suppliers, then fl.listed. sinkEdges[j]
	// is the sink edge of demand j (node demBase+j), whose demand is
	// demands[j]: the only capacities a max-flow rewrites.
	srcEdges  []int
	weights   []float64
	sinkEdges []int
	demands   []int64
	demBase   int
	sink      int
	sup       supplyIndex
	cuts      []float64 // omegaStar's listed breakpoints inside its segment
	// witness is Value's final T, as indices into the sorted support, with
	// witnessSum = d(T) and witnessWeight = the summed weight of its
	// suppliers, |N_r(T)| for LP (2.1): Lemma 2.2.2's maximizer.
	witness       []int32
	witnessSum    int64
	witnessWeight float64
}

// fleet is the vehicles of LP (4.1): longevity def at every lattice point
// except the positions over lists. LP (2.1) and program (2.8) use the
// healthy fleet, def 1 with nothing listed.
type fleet struct {
	def    float64
	over   map[grid.Point]float64
	listed []vehicle // over's vehicles with p > 0, in position order
	exact  bool      // every longevity is 0 or 1
}

// vehicle is a listed vehicle of longevity p > 0.
type vehicle struct {
	at grid.Point
	p  float64
}

// breakpoint is the capacity dist(x, q)/p at which x first reaches q: the
// one expression omegaStar sorts and bind compares.
func (x vehicle) breakpoint(q grid.Point) float64 {
	return float64(grid.Manhattan(x.at, q)) / x.p
}

// maxExact is 2^53: below it every integer is a float64, so the max-flows
// Value runs, whose capacities and flow sums stay below total*|N_r(support)|,
// are exact.
const maxExact = 1 << 53

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
// constructed one (TestSolverWarmEqualsCold pins this). A dimension or
// radius whose ball checkRadius refuses, or an instance whose total demand
// times |N_r(support)| reaches 2^53 (an error wrapping ErrTooLarge), returns
// an error and leaves the solver bound as it was.
func (s *Solver) Bind(m *demand.Map, r int) error {
	s.fl = fleet{def: 1, listed: s.fl.listed[:0], exact: true}
	return s.bind(m, r, 0, m.Support())
}

// bind builds the network of fleet s.fl on m: the supply index's suppliers
// within radius r of the support, of longevity def except where over lists
// the position, then the listed vehicles, each joined to the demands whose
// breakpoint lies below reach. support must be m.Support(), which omegaStar
// sorts once for all its binds.
func (s *Solver) bind(m *demand.Map, r int, reach float64, support []grid.Point) error {
	if err := checkRadius(m.Dim(), r); err != nil {
		return err
	}
	total := m.Total()
	if total > 0 {
		if err := s.sup.build(m, r, support); err != nil {
			return err
		}
		// Value reads neither the index nor anything else build touched,
		// so an instance refused here leaves the bound one intact.
		if n := int64(len(s.sup.suppliers) + len(s.fl.listed)); total > (maxExact-1)/n {
			return fmt.Errorf("%w: %d jobs times %d suppliers reaches 2^53", ErrTooLarge, total, n)
		}
	}
	s.total = total
	s.srcEdges, s.weights = s.srcEdges[:0], s.weights[:0]
	s.sinkEdges, s.demands = s.sinkEdges[:0], s.demands[:0]
	if total == 0 {
		s.sup.suppliers = s.sup.suppliers[:0]
		return nil
	}
	for _, p := range s.sup.suppliers {
		w := s.fl.def
		if _, ok := s.fl.over[p]; ok {
			w = 0 // broken, or one of fl.listed
		}
		s.weights = append(s.weights, w)
	}
	for _, x := range s.fl.listed {
		s.weights = append(s.weights, x.p)
	}
	// Node layout: 0 = source, 1..len(weights) = suppliers, then demands,
	// then sink. Source and sink capacities are set by each max-flow.
	n := 2 + len(s.weights) + len(support)
	if s.nw == nil {
		nw, err := flow.NewNetwork(n)
		if err != nil {
			return err
		}
		s.nw = nw
	} else if err := s.nw.Reinit(n); err != nil {
		return err
	}
	s.demBase, s.sink = 1+len(s.weights), n-1
	for i := range s.weights {
		id, err := s.nw.AddEdge(0, 1+i, 0)
		if err != nil {
			return err
		}
		s.srcEdges = append(s.srcEdges, id)
	}
	deltas := s.sup.ballOffsets(m.Dim(), r)
	for j, q := range support {
		dj := s.demBase + j
		id, err := s.nw.AddEdge(dj, s.sink, 0)
		if err != nil {
			return err
		}
		s.sinkEdges = append(s.sinkEdges, id)
		s.demands = append(s.demands, m.At(q))
		for _, d := range deltas {
			if si := s.sup.supplierAt(q.Add(d)); si >= 0 {
				if _, err := s.nw.AddEdge(1+int(si), dj, math.Inf(1)); err != nil {
					return err
				}
			}
		}
		for i, x := range s.fl.listed {
			if x.breakpoint(q) < reach {
				if _, err := s.nw.AddEdge(1+len(s.sup.suppliers)+i, dj, math.Inf(1)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// saturates reports whether supply weights[i]*p covers demand q*d_j: one
// max-flow carrying q*total. A zero weight supplies nothing at any p, +Inf
// included. For 0/1 longevities and integer p and q every capacity and
// partial sum is an integer below 2^53 (bind's guard), so saturation is
// equality; otherwise it keeps the float bisection's slack, lest a flow
// rounding short skip a segment. A warm call allocates nothing.
func (s *Solver) saturates(p, q float64) (bool, error) {
	s.nw.Reset()
	for i, id := range s.srcEdges {
		supply := 0.0
		if w := s.weights[i]; w != 0 {
			supply = w * p
		}
		if err := s.nw.SetCapacity(id, supply); err != nil {
			return false, err
		}
	}
	for j, id := range s.sinkEdges {
		if err := s.nw.SetCapacity(id, q*float64(s.demands[j])); err != nil {
			return false, err
		}
	}
	val, err := s.nw.MaxFlow(0, s.sink)
	target := q * float64(s.total)
	if s.fl.exact {
		return val == target, err
	}
	return val >= target*(1-1e-9)-1e-9, err
}

// Value computes the exact value of LP (2.1) for the bound instance,
// float64(d(T))/float64(|N_r(T)|) for Lemma 2.2.2's maximizer T. It starts
// from T = the whole support, whose ratio bounds the value from below, and
// tests supply omega = d(T)/|N_r(T)|. A saturating max-flow proves the value
// is at most omega, so T is the maximizer. Otherwise the demands unreachable
// from the source in the final residual graph form the next T: an
// unreachable demand's suppliers are unreachable (its supplier edges are
// uncapacitated), and an unreachable supplier sends its saturated supply to
// unreachable demands only, so the unreachable suppliers are exactly
// N_r(T). The cut then carries |N_r(T)|*omega + d(reachable) < total, so T's
// ratio exceeds omega. Minimal minimum cuts are nested as omega grows (Gallo,
// Grigoriadis and Tarjan), so the witnesses shrink strictly and Value stops
// after at most |support| max-flows. With fractional longevities a flow can
// fall short by Dinic's residual threshold alone, so Value also stops at a
// cut that does not raise the ratio. A warm Value allocates nothing.
func (s *Solver) Value() (float64, error) {
	s.witness = s.witness[:0]
	s.witnessSum, s.witnessWeight = s.total, 0
	for _, w := range s.weights {
		s.witnessWeight += w
	}
	if s.total == 0 {
		return 0, nil
	}
	for j := range s.demands {
		s.witness = append(s.witness, int32(j))
	}
	for {
		ok, err := s.saturates(float64(s.witnessSum), s.witnessWeight)
		if err != nil {
			return 0, err
		}
		if ok {
			return float64(s.witnessSum) / s.witnessWeight, nil
		}
		var sum int64
		var weight float64
		for i, w := range s.weights {
			if !s.nw.MinCutReachable(1 + i) {
				weight += w
			}
		}
		for j, d := range s.demands {
			if !s.nw.MinCutReachable(s.demBase + j) {
				sum += d
			}
		}
		// Cross-multiplied, this is exact for 0/1 longevities, where it
		// never holds.
		if float64(sum)*s.witnessWeight <= float64(s.witnessSum)*weight {
			return float64(s.witnessSum) / s.witnessWeight, nil
		}
		s.witness = s.witness[:0]
		for j := range s.demands {
			if !s.nw.MinCutReachable(s.demBase + j) {
				s.witness = append(s.witness, int32(j))
			}
		}
		s.witnessSum, s.witnessWeight = sum, weight
	}
}
