// Package grid provides geometry for the l-dimensional integer lattice Z^l
// under the Manhattan (L1) metric, the substrate every CMVRP component is
// built on: points, boxes, exact closed-form neighborhood counting
// |N_r(box)|, finite grids with their aligned cube tilings, summed-area
// tables over a window of a grid (the box that holds every nonzero value,
// so a table costs what the demand spans, not the arena), and the omega_T
// equation solver from the thesis (eq. 1.1). Beside that solver sits
// Least, the program's one search for the least value at which a monotone
// test holds: the Won and greedy capacity searches, Theorem 5.1.1's
// transfer bound and the Section 2.1 roots all call it.
package grid

import (
	"cmp"
	"fmt"
	"strconv"
)

// MaxDim is the largest supported lattice dimension. The thesis analyzes
// general l but all applications use l <= 3; 4 leaves headroom for tests.
const MaxDim = 4

// Point is a lattice point in Z^l. Coordinates beyond the active dimension
// must be zero so that Point is directly comparable and usable as a map key.
type Point [MaxDim]int32

// P builds a Point from the given coordinates. Coordinates beyond MaxDim are
// rejected at construction time by panicking; this is a programming error,
// not a runtime condition, so a panic is appropriate (initialization-only).
func P(coords ...int) Point {
	if len(coords) > MaxDim {
		panic("grid: too many coordinates for Point")
	}
	var p Point
	for i, c := range coords {
		p[i] = int32(c)
	}
	return p
}

// Coord returns the i-th coordinate as an int.
func (p Point) Coord(i int) int { return int(p[i]) }

// Compare orders points lexicographically by coordinate, returning -1, 0 or
// +1 — a total order used to make collections derived from map iteration
// deterministic.
func (p Point) Compare(q Point) int {
	for i := range p {
		if c := cmp.Compare(p[i], q[i]); c != 0 {
			return c
		}
	}
	return 0
}

// Less reports whether p orders before q under Compare.
func (p Point) Less(q Point) bool { return p.Compare(q) < 0 }

// LeastKey returns the least key of m under Compare for which bad holds,
// with its value, and false when bad holds for none. An error that names
// the least offender of a map-keyed input reads the same whatever order
// map iteration takes.
func LeastKey[V any](m map[Point]V, bad func(Point, V) bool) (Point, V, bool) {
	var key Point
	var val V
	found := false
	for p, v := range m {
		if bad(p, v) && (!found || p.Less(key)) {
			key, val, found = p, v, true
		}
	}
	return key, val, found
}

// Add returns p translated by q (component-wise sum).
func (p Point) Add(q Point) Point {
	var r Point
	for i := range p {
		r[i] = p[i] + q[i]
	}
	return r
}

// CoordSum returns the sum of all coordinates. The online strategy's
// chessboard coloring (Section 3.2) colors a vertex black when the sum of its
// coordinates is even.
func (p Point) CoordSum() int {
	s := 0
	for i := range p {
		s += int(p[i])
	}
	return s
}

// String renders the point as "(x,y,...)" using the first dim nonzero-width
// coordinates; it always prints MaxDim coordinates' prefix up to the last
// nonzero, minimum 2, which is readable for the common 2-D case.
func (p Point) String() string {
	var buf [maxPointLen]byte
	return string(p.Append(buf[:0]))
}

// maxPointLen is the longest String form: MaxDim coordinates of at most 11
// bytes ("-2147483648"), MaxDim-1 commas and two parentheses.
const maxPointLen = MaxDim*11 + MaxDim - 1 + 2

// Append appends the String form of p to dst and returns the extended
// slice, so a caller building a larger text renders the point without an
// allocation of its own.
func (p Point) Append(dst []byte) []byte {
	last := 1
	for i := 2; i < MaxDim; i++ {
		if p[i] != 0 {
			last = i
		}
	}
	dst = append(dst, '(')
	for i := 0; i <= last; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(p[i]), 10)
	}
	return append(dst, ')')
}

// Manhattan returns the L1 distance between a and b, the travel cost metric
// of the thesis (1 unit of energy per unit of rectilinear distance).
func Manhattan(a, b Point) int {
	d := 0
	for i := range a {
		delta := int(a[i]) - int(b[i])
		if delta < 0 {
			delta = -delta
		}
		d += delta
	}
	return d
}

// Color is the chessboard color of a vertex per Section 3.2 of the thesis.
type Color int

// Vertex colors. Black vertices host the initially active vehicles.
const (
	Black Color = iota + 1
	White
)

// String implements fmt.Stringer for Color.
func (c Color) String() string {
	switch c {
	case Black:
		return "black"
	case White:
		return "white"
	default:
		return fmt.Sprintf("Color(%d)", int(c))
	}
}

// ColorOf returns the chessboard color of p: black iff the coordinate sum is
// even (thesis Section 3.2).
func ColorOf(p Point) Color {
	if p.CoordSum()%2 == 0 {
		return Black
	}
	return White
}
