package grid

import "fmt"

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

// New constructs a finite grid of the given dimension and per-axis sizes.
// Coordinates are int32, so an axis holds at most 2³¹ points, and the point
// count must fit in an int64; sizes beyond either limit return ErrOverflow.
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
		if int64(s) > 1<<31 {
			return nil, fmt.Errorf("grid: size %d in axis %d exceeds 2^31: %w", s, i, ErrOverflow)
		}
		g.size[i] = s
		var err error
		if total, err = mulChecked(total, int64(s)); err != nil {
			return nil, fmt.Errorf("grid: size %d in axis %d: %w", s, i, err)
		}
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

// Len returns the number of lattice points in the grid.
func (g *Grid) Len() int64 { return g.total }

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

// Neighbors appends the lattice neighbors of p that lie inside the grid to
// dst and returns the extended slice; pass nil for a fresh allocation.
func (g *Grid) Neighbors(p Point, dst []Point) []Point {
	for i := 0; i < g.dim; i++ {
		for _, d := range [2]int32{-1, 1} {
			q := p
			q[i] += d
			if g.Contains(q) {
				dst = append(dst, q)
			}
		}
	}
	return dst
}

// Ball returns all grid points within L1 distance r of center.
func (g *Grid) Ball(center Point, r int) []Point {
	pb, err := NewBox(g.dim, center, center)
	if err != nil {
		return nil
	}
	var out []Point
	for _, p := range NeighborhoodPoints(pb, r) {
		if g.Contains(p) {
			out = append(out, p)
		}
	}
	return out
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
	// First copy values shifted by +1 in every axis, then do one running sum
	// pass per axis.
	for idx := int64(0); idx < g.Len(); idx++ {
		p := g.PointAt(idx)
		si := int64(0)
		for i := 0; i < g.dim; i++ {
			si += int64(p[i]+1) * ps.str[i]
		}
		ps.sum[si] = values[idx]
	}
	for axis := 0; axis < g.dim; axis++ {
		step := ps.str[axis]
		n := int64(ext[axis])
		// Iterate over all lines along this axis.
		var iterate func(axisIdx int, base int64)
		iterate = func(axisIdx int, base int64) {
			if axisIdx == g.dim {
				for k := int64(1); k < n; k++ {
					ps.sum[base+k*step] += ps.sum[base+(k-1)*step]
				}
				return
			}
			if axisIdx == axis {
				iterate(axisIdx+1, base)
				return
			}
			for k := 0; k < ext[axisIdx]; k++ {
				iterate(axisIdx+1, base+int64(k)*ps.str[axisIdx])
			}
		}
		iterate(0, 0)
	}
	return ps, nil
}

// BoxSum returns the sum of values over the box clipped to the grid.
func (ps *PrefixSum) BoxSum(b Box) int64 {
	g := ps.g
	var lo, hi [MaxDim]int64
	for i := 0; i < g.dim; i++ {
		l := int64(b.Lo[i])
		h := int64(b.Hi[i]) + 1
		if l < 0 {
			l = 0
		}
		if h > int64(g.size[i]) {
			h = int64(g.size[i])
		}
		if l >= h {
			return 0
		}
		lo[i], hi[i] = l, h
	}
	// Inclusion-exclusion over the 2^dim corners.
	total := int64(0)
	for mask := 0; mask < 1<<g.dim; mask++ {
		idx := int64(0)
		bits := 0
		for i := 0; i < g.dim; i++ {
			if mask&(1<<i) != 0 {
				idx += lo[i] * ps.str[i]
				bits++
			} else {
				idx += hi[i] * ps.str[i]
			}
		}
		if bits%2 == 0 {
			total += ps.sum[idx]
		} else {
			total -= ps.sum[idx]
		}
	}
	return total
}

// MaxCubeSum returns the maximum sum over all side-length-s cubes fully
// inside the grid, along with one achieving corner. Cubes are the family
// Gamma_omega of Corollary 2.2.7. Returns ok=false when s exceeds an axis.
func (ps *PrefixSum) MaxCubeSum(s int) (best int64, corner Point, ok bool) {
	g := ps.g
	for i := 0; i < g.dim; i++ {
		if s > g.size[i] {
			return 0, Point{}, false
		}
	}
	best = -1
	var rec func(axis int, c Point)
	rec = func(axis int, c Point) {
		if axis == g.dim {
			b, err := Cube(g.dim, c, s)
			if err != nil {
				return
			}
			if v := ps.BoxSum(b); v > best {
				best, corner = v, c
			}
			return
		}
		for x := 0; x <= g.size[axis]-s; x++ {
			c[axis] = int32(x)
			rec(axis+1, c)
		}
		c[axis] = 0
	}
	rec(0, Point{})
	return best, corner, true
}
