package grid

import (
	"fmt"
	"math"
)

// Grid is a finite axis-aligned region of Z^l with per-axis sizes, used as
// the simulation arena. Coordinates run 0..Size[i]-1. The thesis works on
// the infinite grid; experiments keep demand support far enough from the
// boundary that the finite arena is equivalent (see DESIGN.md).
type Grid struct {
	dim   int
	size  [MaxDim]int
	strid [MaxDim]int64
	total int64
}

// MaxCells is the most cells a grid may hold: every dense layer indexes
// cells with int32 (sim.NodeID, the online partition's tables), and
// offline.VerifySchedule indexes no wider box.
const MaxCells = 1 << 31

// New constructs a finite grid of the given dimension and per-axis sizes.
// A grid holds at most MaxCells points; larger sizes return ErrOverflow.
func New(sizes ...int) (*Grid, error) {
	if len(sizes) < 1 || len(sizes) > MaxDim {
		return nil, fmt.Errorf("grid: dimension %d out of range [1,%d]", len(sizes), MaxDim)
	}
	g := &Grid{dim: len(sizes)}
	total := int64(1)
	for i, s := range sizes {
		if s < 1 {
			return nil, fmt.Errorf("grid: size %d in axis %d must be >= 1", s, i)
		}
		if int64(s) > MaxCells/total {
			return nil, fmt.Errorf("grid: sizes %v exceed 2^31 cells: %w", sizes, ErrOverflow)
		}
		g.size[i] = s
		total *= int64(s)
	}
	g.total = total
	// Row-major strides.
	stride := int64(1)
	for i := g.dim - 1; i >= 0; i-- {
		g.strid[i] = stride
		stride *= int64(g.size[i])
	}
	return g, nil
}

// MustNew is New for static configuration; it panics on invalid sizes.
func MustNew(sizes ...int) *Grid {
	g, err := New(sizes...)
	if err != nil {
		panic(err)
	}
	return g
}

// Dim returns the lattice dimension.
func (g *Grid) Dim() int { return g.dim }

// Size returns the extent along axis i.
func (g *Grid) Size(i int) int { return g.size[i] }

// MinSize returns the shortest axis: the largest side of a cube that fits.
func (g *Grid) MinSize() int {
	m := g.size[0]
	for i := 1; i < g.dim; i++ {
		m = min(m, g.size[i])
	}
	return m
}

// Len returns the number of lattice points in the grid.
func (g *Grid) Len() int64 { return g.total }

// Tiles returns the number of aligned side-s cubes that tile the grid, the
// last one on each axis clipped at the far face: (size-1)/s + 1 per axis,
// which cannot overflow, so a side past the grid leaves one tile. s must be
// at least 1. Lemma 2.2.5's schedule and the Chapter 3 partition both cut
// the arena into these tiles.
func (g *Grid) Tiles(s int) int {
	n := 1
	for i := 0; i < g.dim; i++ {
		n *= (g.size[i]-1)/s + 1
	}
	return n
}

// Tile returns tile c of the side-s tiling, c in [0, Tiles(s)), and whether
// it is a full cube rather than one clipped at a far face. Tiles are
// numbered with axis 0 as the most significant digit, the row-major order
// of their low corners.
func (g *Grid) Tile(s, c int) (Box, bool) {
	var t Point
	for i := g.dim - 1; i >= 0; i-- {
		per := (g.size[i]-1)/s + 1
		t[i] = int32(c % per)
		c /= per
	}
	return g.TileAt(s, t)
}

// TileAt returns the side-s tile at tile coordinates t, the one whose low
// corner is s·t, and whether it is full; 0 <= t_i <= (size_i-1)/s.
func (g *Grid) TileAt(s int, t Point) (b Box, full bool) {
	b.Dim, full = g.dim, true
	for i := 0; i < g.dim; i++ {
		lo := int(t[i]) * s
		side := min(s, g.size[i]-lo)
		full = full && side == s
		b.Lo[i], b.Hi[i] = int32(lo), int32(lo+side-1)
	}
	return b, full
}

// TilesMeeting returns the tile coordinates of the side-s tiles that meet
// b, a nonempty box inside the grid, as a box for TileAt: b.Lo_i/s to
// b.Hi_i/s on axis i. Its points in row-major order are those tiles in
// Tile's order.
func (g *Grid) TilesMeeting(s int, b Box) Box {
	t := Box{Dim: g.dim}
	for i := 0; i < g.dim; i++ {
		t.Lo[i], t.Hi[i] = int32(int(b.Lo[i])/s), int32(int(b.Hi[i])/s)
	}
	return t
}

// Bounds returns the grid as a Box.
func (g *Grid) Bounds() Box {
	var hi Point
	for i := 0; i < g.dim; i++ {
		hi[i] = int32(g.size[i] - 1)
	}
	return Box{Lo: Point{}, Hi: hi, Dim: g.dim}
}

// Contains reports whether p lies inside the grid.
func (g *Grid) Contains(p Point) bool {
	for i := 0; i < g.dim; i++ {
		if p[i] < 0 || int(p[i]) >= g.size[i] {
			return false
		}
	}
	for i := g.dim; i < MaxDim; i++ {
		if p[i] != 0 {
			return false
		}
	}
	return true
}

// Index returns the row-major linear index of p. The caller must ensure p is
// inside the grid (checked in tests; hot path in solvers).
func (g *Grid) Index(p Point) int64 {
	idx := int64(0)
	for i := 0; i < g.dim; i++ {
		idx += int64(p[i]) * g.strid[i]
	}
	return idx
}

// PointAt inverts Index.
func (g *Grid) PointAt(idx int64) Point {
	var p Point
	for i := 0; i < g.dim; i++ {
		p[i] = int32(idx / g.strid[i])
		idx %= g.strid[i]
	}
	return p
}

// PrefixSum is an l-dimensional summed-area table over a window of a grid:
// a box inside the grid outside which every value is zero, such as the
// bounding box of a demand's support. It costs the window's cells, not the
// grid's, and answers every box sum of the grid with 2^l loads. It is the
// offline pipeline's one dense form of the demand (Corollary 2.2.7's cube
// characterization, Algorithm 1's aligned cube sums, Lemma 2.2.5's
// per-cell reads), and the cube omega* scans and the transfer bound read
// it too.
//
// NewPrefixSum returns a table of zeros; Add scatters the values into it
// and Accumulate, called once after the last Add, turns them into prefix
// sums. Only then may Sum and MaxCubeSum read it. The caller ranges over
// its values itself, so a range over an iterator stays where it inlines.
type PrefixSum struct {
	g   *Grid
	win Box     // the window; Dim 0 when it is empty
	sum []int64 // (side_0+1)*...*(side_{l-1}+1) entries; index with str
	str [MaxDim]int64
}

// NewPrefixSum returns a table of zeros over the window b of g. b must have
// g's dimension and lie inside g, or be the zero Box, the empty window of a
// table whose every sum is 0.
func NewPrefixSum(g *Grid, b Box) (PrefixSum, error) {
	var ps PrefixSum
	if err := ps.Reset(g, b); err != nil {
		return PrefixSum{}, err
	}
	return ps, nil
}

// Reset makes ps the table of zeros NewPrefixSum(g, b) returns, on ps's own
// storage, cleared, when it holds enough entries: a caller that builds one
// table after another allocates only when a window outgrows the largest so
// far. The zero Box with a nil g leaves an empty table that refers to no
// grid but keeps the storage. On an error ps is left so too.
func (ps *PrefixSum) Reset(g *Grid, b Box) error {
	*ps = PrefixSum{g: g, win: b, sum: ps.sum[:0]}
	if b.Dim == 0 {
		return nil
	}
	if b.Dim != g.dim || !g.Contains(b.Lo) || !g.Contains(b.Hi) {
		*ps = PrefixSum{sum: ps.sum}
		return fmt.Errorf("grid: window %v..%v outside the %d-D grid", b.Lo, b.Hi, g.dim)
	}
	stride := int64(1)
	for i := g.dim - 1; i >= 0; i-- {
		if b.Lo[i] > b.Hi[i] {
			*ps = PrefixSum{sum: ps.sum}
			return fmt.Errorf("grid: window lo%v > hi%v in axis %d", b.Lo, b.Hi, i)
		}
		ps.str[i] = stride
		stride *= b.Side(i) + 1
	}
	if int64(cap(ps.sum)) < stride {
		ps.sum = make([]int64, stride)
	} else {
		ps.sum = ps.sum[:stride]
		clear(ps.sum)
	}
	return nil
}

// Grid returns the grid the table was built over, so consumers handed a
// shared PrefixSum (offline.Dense, the cube omega scans) can recover the
// arena geometry without carrying it separately.
func (ps *PrefixSum) Grid() *Grid { return ps.g }

// Window returns the box the table covers: the zero Box when it is empty.
func (ps *PrefixSum) Window() Box { return ps.win }

// Add adds v to the value at p, which must lie in the window, before
// Accumulate.
func (ps *PrefixSum) Add(p Point, v int64) {
	idx := int64(0)
	for i := 0; i < ps.win.Dim; i++ {
		idx += (int64(p[i]) - int64(ps.win.Lo[i]) + 1) * ps.str[i]
	}
	ps.sum[idx] += v
}

// Accumulate turns the added values into the summed-area table: the entry
// at window offset x+1 becomes the sum over the window's cells up to x. It
// runs one pass per axis: along axis a the table splits into blocks of
// side_a+1 slices of str[a] entries, and each slice adds the one before.
func (ps *PrefixSum) Accumulate() {
	total := int64(len(ps.sum))
	for axis := 0; axis < ps.win.Dim; axis++ {
		step := ps.str[axis]
		block := step * (ps.win.Side(axis) + 1)
		for b := int64(0); b < total; b += block {
			for i := b + step; i < b+block; i++ {
				ps.sum[i] += ps.sum[i-step]
			}
		}
	}
}

// Sum returns the sum of the values over b, a box of the grid's dimension,
// by inclusion-exclusion over the 2^l table corners of b clipped to the
// window; a box that misses the window sums to 0.
func (ps *PrefixSum) Sum(b Box) int64 {
	if len(ps.sum) == 0 {
		return 0
	}
	win := ps.win
	// lo and hi hold each axis's term of the table index just below the
	// clipped box's low face and at its high face.
	var lo, hi [MaxDim]int64
	for i := 0; i < win.Dim; i++ {
		l, h := max(b.Lo[i], win.Lo[i]), min(b.Hi[i], win.Hi[i])
		if l > h {
			return 0
		}
		lo[i] = (int64(l) - int64(win.Lo[i])) * ps.str[i]
		hi[i] = (int64(h) - int64(win.Lo[i]) + 1) * ps.str[i]
	}
	total := int64(0)
	for mask := 0; mask < 1<<win.Dim; mask++ {
		idx, odd := int64(0), false
		for i := 0; i < win.Dim; i++ {
			if mask&(1<<i) != 0 {
				idx, odd = idx+lo[i], !odd
			} else {
				idx += hi[i]
			}
		}
		if odd {
			total -= ps.sum[idx]
		} else {
			total += ps.sum[idx]
		}
	}
	return total
}

// MaxCubeSum returns the largest sum over the grid's side-s cubes (the
// family Gamma_omega of Corollary 2.2.7), or 0 when s < 1 or s exceeds the
// shortest axis. It scans the boxes inside the window whose side on axis i
// is w_i = min(s, side_i), the window's side there. For non-negative values
// the two maxima are equal: a cube's part inside the window fits in such a
// box, and such a box fits in a cube of the grid, because s <= MinSize().
// When the window is the whole grid the boxes are the cubes, so the scan is
// exact for any values. It walks the boxes' low corners in row-major order
// through the table: the 2^l corner offsets of a box, and which of them add
// or subtract, are fixed once per side, so a box costs 2^l loads.
func (ps *PrefixSum) MaxCubeSum(s int) int64 {
	g, win := ps.g, ps.win
	if s < 1 || s > g.MinSize() || len(ps.sum) == 0 {
		return 0
	}
	// span[i] is the last low corner offset of a box on axis i.
	var w, span [MaxDim]int64
	for i := 0; i < win.Dim; i++ {
		w[i] = min(int64(s), win.Side(i))
		span[i] = win.Side(i) - w[i]
	}
	// The box with low corner c sums over the table entries at c + off
	// for the offsets off with coordinates in {0, w_i}: an even number of
	// zero coordinates adds, an odd number subtracts.
	var add, sub [1 << (MaxDim - 1)]int64
	na, ns := 0, 0
	for mask := 0; mask < 1<<win.Dim; mask++ {
		off, zeros := int64(0), 0
		for i := 0; i < win.Dim; i++ {
			if mask&(1<<i) != 0 {
				off += w[i] * ps.str[i]
			} else {
				zeros++
			}
		}
		if zeros%2 == 0 {
			add[na], na = off, na+1
		} else {
			sub[ns], ns = off, ns+1
		}
	}
	last := win.Dim - 1
	row := span[last] + 1 // corners along the innermost axis
	best := int64(math.MinInt64)
	var c [MaxDim]int64 // corner offsets on the outer axes
	base := int64(0)    // table index of the current row's first corner
	for {
		for i := base; i < base+row; i++ {
			sum := int64(0)
			for _, o := range add[:na] {
				sum += ps.sum[i+o]
			}
			for _, o := range sub[:ns] {
				sum -= ps.sum[i+o]
			}
			best = max(best, sum)
		}
		axis := last - 1
		for ; axis >= 0; axis-- {
			if c[axis] < span[axis] {
				c[axis]++
				base += ps.str[axis]
				break
			}
			base -= c[axis] * ps.str[axis]
			c[axis] = 0
		}
		if axis < 0 {
			return best
		}
	}
}
