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
func (g *Grid) Tile(s, c int) (b Box, full bool) {
	b.Dim, full = g.dim, true
	for i := g.dim - 1; i >= 0; i-- {
		per := (g.size[i]-1)/s + 1
		lo := c % per * s
		c /= per
		side := min(s, g.size[i]-lo)
		full = full && side == s
		b.Lo[i], b.Hi[i] = int32(lo), int32(lo+side-1)
	}
	return b, full
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

// PrefixSum is an l-dimensional summed-area table over a grid, giving O(2^l)
// box sums. It powers the cube characterization of Corollary 2.2.6/2.2.7 and
// the sliding-window maximum inside the offline solver.
type PrefixSum struct {
	g   *Grid
	sum []int64 // size (n0+1)*(n1+1)*...; index with own strides
	str [MaxDim]int64
}

// Grid returns the grid the table was built over, so consumers handed a
// shared PrefixSum (offline.Dense, the cube omega scans) can recover the
// arena geometry without carrying it separately.
func (ps *PrefixSum) Grid() *Grid { return ps.g }

// NewPrefixSum builds the summed-area table for the values indexed by the
// grid's linear index (values[g.Index(p)] is the value at p).
func NewPrefixSum(g *Grid, values []int64) (*PrefixSum, error) {
	if int64(len(values)) != g.Len() {
		return nil, fmt.Errorf("grid: values length %d != grid length %d", len(values), g.Len())
	}
	ps := &PrefixSum{g: g}
	total := int64(1)
	ext := [MaxDim]int{}
	for i := 0; i < g.dim; i++ {
		ext[i] = g.size[i] + 1
		total *= int64(ext[i])
	}
	stride := int64(1)
	for i := g.dim - 1; i >= 0; i-- {
		ps.str[i] = stride
		stride *= int64(ext[i])
	}
	ps.sum = make([]int64, total)
	// Fill: sum at (x0+1, ..., x_{l-1}+1) = inclusive prefix sum up to x.
	// First copy each row of values shifted by +1 in every axis, then do one
	// running sum pass per axis: along axis a the table splits into blocks
	// of ext[a] slices of str[a] entries, and each slice adds the one before.
	n := int64(g.size[g.dim-1])
	for src := int64(0); src < g.Len(); src += n {
		p := g.PointAt(src)
		dst := int64(0)
		for i := 0; i < g.dim; i++ {
			dst += int64(p[i]+1) * ps.str[i]
		}
		copy(ps.sum[dst:dst+n], values[src:src+n])
	}
	for axis := 0; axis < g.dim; axis++ {
		step := ps.str[axis]
		block := step * int64(ext[axis])
		for b := int64(0); b < total; b += block {
			for i := b + step; i < b+block; i++ {
				ps.sum[i] += ps.sum[i-step]
			}
		}
	}
	return ps, nil
}

// MaxCubeSum returns the largest sum over the side-s cubes inside the grid
// (the family Gamma_omega of Corollary 2.2.7), or 0 when s < 1 or s exceeds
// the shortest axis. It walks the cubes' low corners in row-major order
// through the table: the 2^l corner offsets of a cube, and which of them
// add or subtract, are fixed once per side, so a cube costs 2^l loads.
func (ps *PrefixSum) MaxCubeSum(s int) int64 {
	g := ps.g
	if s < 1 || s > g.MinSize() {
		return 0
	}
	// The cube with low corner c sums over the table entries at c + off
	// for the offsets off with coordinates in {0, s}: an even number of
	// zero coordinates adds, an odd number subtracts.
	var add, sub [1 << (MaxDim - 1)]int64
	na, ns := 0, 0
	for mask := 0; mask < 1<<g.dim; mask++ {
		off, zeros := int64(0), 0
		for i := 0; i < g.dim; i++ {
			if mask&(1<<i) != 0 {
				off += int64(s) * ps.str[i]
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
	last := g.dim - 1
	row := int64(g.size[last] - s + 1) // corners along the innermost axis
	best := int64(math.MinInt64)
	var c [MaxDim]int // corner coordinates on the outer axes
	base := int64(0)  // table index of the current row's first corner
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
			if c[axis] < g.size[axis]-s {
				c[axis]++
				base += ps.str[axis]
				break
			}
			base -= int64(c[axis]) * ps.str[axis]
			c[axis] = 0
		}
		if axis < 0 {
			return best
		}
	}
}
