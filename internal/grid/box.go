package grid

import (
	"errors"
	"fmt"
	"math"
)

// Box is an axis-aligned box of lattice points, inclusive on both ends, in a
// lattice of dimension Dim. Unused dimensions must have Lo=Hi=0 so that the
// side length is 1 and does not perturb counting formulas.
type Box struct {
	Lo, Hi Point
	Dim    int
}

// ErrOverflow is returned when a lattice count exceeds the range it is held
// in: int64 for exact counts, 2^31 cells for a grid.
var ErrOverflow = errors.New("grid: lattice count overflows")

// NewBox constructs a box spanning lo..hi inclusive in dimension dim.
func NewBox(dim int, lo, hi Point) (Box, error) {
	if dim < 1 || dim > MaxDim {
		return Box{}, fmt.Errorf("grid: dimension %d out of range [1,%d]", dim, MaxDim)
	}
	for i := 0; i < dim; i++ {
		if lo[i] > hi[i] {
			return Box{}, fmt.Errorf("grid: box lo%v > hi%v in axis %d", lo, hi, i)
		}
	}
	for i := dim; i < MaxDim; i++ {
		if lo[i] != 0 || hi[i] != 0 {
			return Box{}, fmt.Errorf("grid: coordinates beyond dim %d must be zero", dim)
		}
	}
	return Box{Lo: lo, Hi: hi, Dim: dim}, nil
}

// Cube returns the dim-dimensional cube with the given corner and side
// length. side must be >= 1, and the far corner must lie within int32.
func Cube(dim int, corner Point, side int) (Box, error) {
	if side < 1 {
		return Box{}, fmt.Errorf("grid: cube side %d must be >= 1", side)
	}
	hi := corner
	for i := 0; i < dim; i++ {
		if side-1 > math.MaxInt32-int(corner[i]) {
			return Box{}, fmt.Errorf("grid: cube of side %d at %v has its far corner past %d on axis %d", side, corner, math.MaxInt32, i)
		}
		hi[i] += int32(side - 1)
	}
	return NewBox(dim, corner, hi)
}

// Side returns the number of lattice points along axis i.
func (b Box) Side(i int) int64 { return int64(b.Hi[i]) - int64(b.Lo[i]) + 1 }

// Volume returns the number of lattice points in the box. The product can
// overflow for enormous boxes; size-gating callers must use VolumeChecked.
func (b Box) Volume() int64 {
	v := int64(1)
	for i := 0; i < b.Dim; i++ {
		v *= b.Side(i)
	}
	return v
}

// VolumeChecked is Volume with overflow detection: it returns ErrOverflow
// instead of a wrapped product when the point count exceeds int64 range.
func (b Box) VolumeChecked() (int64, error) {
	v := int64(1)
	for i := 0; i < b.Dim; i++ {
		var err error
		if v, err = mulChecked(v, b.Side(i)); err != nil {
			return 0, err
		}
	}
	return v, nil
}

// Contains reports whether p lies inside the box.
func (b Box) Contains(p Point) bool {
	for i := 0; i < b.Dim; i++ {
		if p[i] < b.Lo[i] || p[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// Expand returns the box grown by r lattice steps in every axis direction.
// Note Expand(r) is the *bounding box* of N_r(b), not N_r(b) itself (the L1
// neighborhood has diamond-shaped corners).
func (b Box) Expand(r int) Box {
	e := b
	for i := 0; i < b.Dim; i++ {
		e.Lo[i] -= int32(r)
		e.Hi[i] += int32(r)
	}
	return e
}

// Points enumerates all lattice points in the box in row-major order.
func (b Box) Points() []Point { return b.AppendPoints(make([]Point, 0, b.Volume())) }

// AppendPoints appends the box's lattice points to dst in row-major order
// and returns the extended slice, so a caller visiting many boxes can fill
// one buffer. A coordinate is compared with Hi before it is incremented,
// so a box that reaches math.MaxInt32 on an axis ends there instead of
// wrapping to math.MinInt32.
func (b Box) AppendPoints(dst []Point) []Point {
	p := b.Lo
	for {
		dst = append(dst, p)
		axis := b.Dim - 1
		for ; axis >= 0 && p[axis] >= b.Hi[axis]; axis-- {
			p[axis] = b.Lo[axis]
		}
		if axis < 0 {
			return dst
		}
		p[axis]++
	}
}

// NeighborhoodCountFloat returns |N_r(b)|, the number of lattice points of
// Z^dim within L1 distance floor(r) of the box b (the denominator of omega_T
// in eq. 1.1), in float64 arithmetic: the omega solvers need it at radii
// where a relative error of ~1e-12 is irrelevant next to the thesis'
// constant factors. It evaluates NeighborhoodCount's closed form without
// allocating; the tests pin it to an exact integer evaluation of that form
// and to an enumeration of the points.
func NeighborhoodCountFloat(b Box, r float64) float64 {
	if r < 0 {
		return 0
	}
	var elem [MaxDim + 1]int64
	elem[0] = 1
	for i := 0; i < b.Dim; i++ {
		v := b.Side(i)
		for j := b.Dim; j >= 1; j-- {
			elem[j] += elem[j-1] * v
		}
	}
	rf := math.Floor(r)
	total := 0.0
	pow2 := 1.0
	for k := 0; k <= b.Dim; k++ {
		c := 1.0
		for i := 1; i <= k; i++ {
			c *= (rf - float64(k-i)) / float64(i)
		}
		if c < 0 {
			c = 0
		}
		total += pow2 * c * float64(elem[b.Dim-k])
		pow2 *= 2
	}
	return total
}

func mulChecked(a, b int64) (int64, error) {
	if a == 0 || b == 0 {
		return 0, nil
	}
	if a > math.MaxInt64/b {
		return 0, ErrOverflow
	}
	return a * b, nil
}

// AppendBall appends to dst the offsets d of Z^dim with |d|_1 <= r, in
// row-major order (last axis fastest), and returns the extended slice.
// Translated by q, the offsets list N_r(q) in the order a row-major scan of
// its (2r+1)^dim bounding box meets them, without visiting the box: dst
// grows at most once, sized by the ball's closed-form count. dim must lie in
// [1, MaxDim]; a negative r appends nothing.
func AppendBall(dst []Point, dim, r int) []Point {
	if r < 0 {
		return dst
	}
	if n := int(NeighborhoodCountFloat(Box{Dim: dim}, float64(r))); cap(dst)-len(dst) < n {
		dst = append(make([]Point, 0, len(dst)+n), dst...)
	}
	return appendBallAxis(dst, Point{}, 0, dim, r)
}

// appendBallAxis appends the ball points that agree with p before axis and
// spend at most budget on the remaining axes.
func appendBallAxis(dst []Point, p Point, axis, dim, budget int) []Point {
	for x := -budget; x <= budget; x++ {
		p[axis] = int32(x)
		if axis == dim-1 {
			dst = append(dst, p)
		} else {
			dst = appendBallAxis(dst, p, axis+1, dim, budget-max(x, -x))
		}
	}
	return dst
}
