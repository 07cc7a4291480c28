// Package offline implements the offline half of the thesis' contribution
// (Chapter 2): the cube characterization omega_c of Corollary 2.2.7, the
// linear-time approximation Algorithm 1 for Woff, and the constructive
// vehicle schedule of Lemma 2.2.5 together with a feasibility verifier. The
// schedule is what turns the existence proof into a deployable plan: it
// demonstrates the upper bound Woff <= (2*3^l + l) * omega* by construction.
package offline

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/demand"
	"repro/internal/grid"
)

// pow returns base^exp for small integer exponents.
func pow(base, exp int) int64 {
	r := int64(1)
	for i := 0; i < exp; i++ {
		r *= int64(base)
	}
	return r
}

// Dense is the dense offline view of one (demand, arena) pair: one
// summed-area table over the bounding box of the demand's support, built
// once and shared by every Chapter 2 solver, so the full offline pipeline
// (characterize, estimate, construct) densifies the demand exactly once,
// and as far as the demand reaches, not over the whole arena. Corollary
// 2.2.7's omega_c, Algorithm 1's aligned cube sums and Lemma 2.2.5's
// per-cell reads are all box sums of d, which the table answers. A Dense
// is immutable after construction.
type Dense struct {
	m     *demand.Map
	arena *grid.Grid
	ps    grid.PrefixSum
	max   int64 // max_x d(x), read off the walk that fills the table
}

// NewDense densifies m over arena. Demand outside the arena is an error
// naming the least such position.
func NewDense(m *demand.Map, arena *grid.Grid) (*Dense, error) {
	d := new(Dense)
	if err := d.reset(m, arena); err != nil {
		return nil, err
	}
	return d, nil
}

// reset makes d the dense view NewDense(m, arena) returns, building the
// table on d's own storage.
func (d *Dense) reset(m *demand.Map, arena *grid.Grid) error {
	win, ok := m.BoundingBox()
	if ok {
		if !arena.Contains(win.Lo) || !arena.Contains(win.Hi) {
			for _, p := range m.Support() { // sorted, so the first found is the least
				if !arena.Contains(p) {
					return fmt.Errorf("offline: position %v outside the %s arena", p, sizeText(arena))
				}
			}
		}
		win.Dim = arena.Dim()
	}
	if err := d.ps.Reset(arena, win); err != nil {
		return err
	}
	d.m, d.arena, d.max = m, arena, 0
	for p, v := range m.All() {
		d.ps.Add(p, v)
		d.max = max(d.max, v)
	}
	d.ps.Accumulate()
	return nil
}

// drop makes d refer to no demand map and no arena, keeping the table's
// storage: a pooled view keeps nothing of its last caller's.
func (d *Dense) drop() {
	d.m, d.arena = nil, nil
	_ = d.ps.Reset(nil, grid.Box{}) // the empty window cannot fail
}

// sizeText renders the arena's sizes as "4x4".
func sizeText(arena *grid.Grid) string {
	b := strconv.AppendInt(nil, int64(arena.Size(0)), 10)
	for i := 1; i < arena.Dim(); i++ {
		b = strconv.AppendInt(append(b, 'x'), int64(arena.Size(i)), 10)
	}
	return string(b)
}

// At returns the demand at p, a point of the arena, from the table.
func (d *Dense) At(p grid.Point) int64 {
	return d.ps.Sum(grid.Box{Lo: p, Hi: p, Dim: d.arena.Dim()})
}

// Prefix returns the summed-area table NewDense built, whose grid is the
// arena. Exported so pipeline consumers — the lpchar cube omega* scans in
// E11 — read this table instead of densifying the same demand again (the
// one-densification-per-pipeline rule).
func (d *Dense) Prefix() *grid.PrefixSum { return &d.ps }

// CubeChar is the result of the Corollary 2.2.7 characterization: the value
// omega_c together with the cube side its feasibility check passed at. The
// side is *not* always ceil(Omega): when the crossing happens exactly at an
// integer segment boundary, omega_c = s-1 but the partition that works uses
// side s, so schedule construction must take Side from here.
type CubeChar struct {
	Omega float64
	Side  int
}

// OmegaC computes the cube quantity of Corollary 2.2.7:
//
//	omega_c = min{ omega : omega * (3*ceil(omega))^l = max_{T in Gamma_omega} sum d }
//
// where Gamma_omega is the family of ceil(omega)-cubes. For each integer
// side s the candidate is f(s) = maxCubeSum(s) / (3s)^l, valid when it lands
// in the segment (s-1, s]; below the segment the crossing happens at the
// boundary s-1 (still with side s). The scan stops once the segment floor
// exceeds the best candidate, since all later candidates are at least s-1.
//
// It densifies m on a pooled workspace's table, as Solve does.
func OmegaC(m *demand.Map, arena *grid.Grid) (CubeChar, error) {
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	defer ws.d.drop()
	if err := ws.d.reset(m, arena); err != nil {
		return CubeChar{}, err
	}
	return ws.d.OmegaC()
}

// OmegaC is the Corollary 2.2.7 characterization on the shared dense view.
func (d *Dense) OmegaC() (CubeChar, error) {
	m, arena := d.m, d.arena
	if m.Total() == 0 {
		return CubeChar{}, nil
	}
	ps := &d.ps
	l := arena.Dim()
	maxSide := arena.MinSize()
	best := CubeChar{Omega: math.Inf(1)}
	for s := 1; s <= maxSide; s++ {
		if float64(s-1) >= best.Omega {
			break
		}
		sum := ps.MaxCubeSum(s)
		if sum <= 0 {
			continue
		}
		f := float64(sum) / float64(pow(3*s, l))
		var cand float64
		switch {
		case f > float64(s):
			continue // capacity s insufficient at this cube size
		case f > float64(s-1):
			cand = f
		default:
			cand = float64(s - 1) // crossing at the segment boundary
		}
		if cand < best.Omega {
			best = CubeChar{Omega: cand, Side: s}
		}
	}
	if math.IsInf(best.Omega, 1) {
		// No cube size fits inside the arena with enough capacity; the
		// arena is too small relative to the demand concentration.
		return CubeChar{}, fmt.Errorf("offline: no feasible cube size within arena (max side %d)", maxSide)
	}
	return best, nil
}

// Alg1Result carries Algorithm 1's answer plus diagnostics.
type Alg1Result struct {
	// W is the returned per-vehicle capacity estimate.
	W float64
	// CubeSide is the side length w at which the pyramid check passed, or 0
	// when a degenerate branch (steps 1-4 of the listing) returned early.
	CubeSide int
	// Branch records which return statement fired, for tests and tracing.
	Branch Alg1Branch
	// Sums counts the aligned cube sums the doubling pyramid read from the
	// summed-area table, over every level it visited: Section 2.3's work
	// measure. Level w reads at most (n/w)^l sums, so Sums < n^l/(2^l-1).
	// It is 0 when a degenerate branch returned early.
	Sums int64
}

// Alg1Branch identifies Algorithm 1's exit points.
type Alg1Branch int

// Exit points of Algorithm 1 (line numbers follow the thesis listing).
const (
	// BranchDenseGrid is line 2: n <= average demand.
	BranchDenseGrid Alg1Branch = iota + 1
	// BranchTinyDemand is line 4: max demand <= 1.
	BranchTinyDemand
	// BranchFullGrid is line 7: the pyramid reached w = n.
	BranchFullGrid
	// BranchCube is line 14: some cube size w passed the density check.
	BranchCube
)

// String implements fmt.Stringer.
func (b Alg1Branch) String() string {
	switch b {
	case BranchDenseGrid:
		return "dense-grid"
	case BranchTinyDemand:
		return "tiny-demand"
	case BranchFullGrid:
		return "full-grid"
	case BranchCube:
		return "cube"
	default:
		return fmt.Sprintf("Alg1Branch(%d)", int(b))
	}
}

// Algorithm1 is a faithful transcription of the thesis' linear-time
// 2(2*3^l+l)-approximation for Woff (Section 2.3). The arena must be an
// n x ... x n grid with n a power of two. It aggregates demand over aligned
// w-cubes with doubling w and returns (2*3^l+l)*w for the first w whose
// aligned cube sums all satisfy sum <= w*(3w)^l. Each level reads its
// aligned w-cube sums from the shared table, visiting only the cubes that
// meet the demand's bounding box: the others sum to 0, under every
// threshold.
func (d *Dense) Algorithm1() (Alg1Result, error) {
	m, arena := d.m, d.arena
	l := arena.Dim()
	n := arena.Size(0)
	for i := 1; i < l; i++ {
		if arena.Size(i) != n {
			return Alg1Result{}, fmt.Errorf("offline: arena must be square, got %d and %d", n, arena.Size(i))
		}
	}
	if n&(n-1) != 0 {
		return Alg1Result{}, fmt.Errorf("offline: arena side %d must be a power of two", n)
	}
	maxD := float64(d.max)
	avgD := float64(m.Total()) / float64(arena.Len())
	fallback := math.Min(maxD, 2*avgD+float64(l*n))
	// Lines 1-2: the grid is saturated; every vehicle can reach everywhere.
	if float64(n) <= avgD {
		return Alg1Result{W: fallback, Branch: BranchDenseGrid}, nil
	}
	// Lines 3-4: nobody can afford to move at all.
	if maxD <= 1 {
		return Alg1Result{W: maxD, Branch: BranchTinyDemand}, nil
	}
	// Lines 5-14: the doubling pyramid. Every aligned w-cube is a full
	// tile of the arena, since w divides n.
	var sums int64
	for w := 2; ; w *= 2 {
		if w > n {
			return Alg1Result{W: fallback, Branch: BranchFullGrid, Sums: sums}, nil
		}
		threshold := float64(w) * float64(pow(3*w, l))
		cubes := arena.TilesMeeting(w, d.ps.Window())
		ix := grid.NewBoxIndex(cubes)
		ok := true
		for k := range cubes.Volume() {
			cube, _ := arena.TileAt(w, ix.PointAt(k))
			sums++
			if float64(d.ps.Sum(cube)) > threshold {
				ok = false
				break
			}
		}
		if ok {
			return Alg1Result{
				W:        float64(2*pow(3, l)+int64(l)) * float64(w),
				CubeSide: w,
				Branch:   BranchCube,
				Sums:     sums,
			}, nil
		}
	}
}
