package grid

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func mustBox(t *testing.T, dim int, lo, hi Point) Box {
	t.Helper()
	b, err := NewBox(dim, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBoxValidation(t *testing.T) {
	if _, err := NewBox(0, P(0), P(0)); err == nil {
		t.Error("dim 0 should fail")
	}
	if _, err := NewBox(2, P(1, 0), P(0, 0)); err == nil {
		t.Error("lo > hi should fail")
	}
	if _, err := NewBox(1, P(0, 5), P(0, 5)); err == nil {
		t.Error("nonzero coordinate beyond dim should fail")
	}
}

func TestCube(t *testing.T) {
	c, err := Cube(2, P(3, 4), 5)
	if err != nil {
		t.Fatal(err)
	}
	if c.Lo != P(3, 4) || c.Hi != P(7, 8) {
		t.Fatalf("cube bounds %v..%v", c.Lo, c.Hi)
	}
	if c.Volume() != 25 {
		t.Fatalf("volume %d", c.Volume())
	}
	if _, err := Cube(2, P(0, 0), 0); err == nil {
		t.Error("side 0 should fail")
	}
	// The far corner is checked before it is narrowed to int32. Both used
	// to wrap: the first into a one-point cube, the second into a far
	// corner below the near one, which NewBox refused as lo > hi.
	for _, tc := range []struct {
		corner Point
		side   int
	}{{P(0, 0), 1<<32 + 1}, {P(0, math.MaxInt32-2), 4}} {
		if c, err := Cube(2, tc.corner, tc.side); err == nil {
			t.Errorf("side %d at %v: cube %v..%v, want an error", tc.side, tc.corner, c.Lo, c.Hi)
		}
	}
	if c, err := Cube(1, P(math.MaxInt32-3), 4); err != nil || c.Hi != P(math.MaxInt32) {
		t.Errorf("cube ending at MaxInt32: %v..%v, %v", c.Lo, c.Hi, err)
	}
	// A side spanning more than 2^31 points is counted in int64.
	if got := (Box{Lo: P(math.MinInt32), Hi: P(math.MaxInt32), Dim: 1}).Side(0); got != 1<<32 {
		t.Errorf("side of the whole int32 axis = %d", got)
	}
}

func TestBoxDist(t *testing.T) {
	b := mustBox(t, 2, P(0, 0), P(2, 2))
	tests := []struct {
		p    Point
		want int
	}{
		{P(1, 1), 0},
		{P(0, 0), 0},
		{P(3, 1), 1},
		{P(-2, 1), 2},
		{P(4, 5), 5},
		{P(-1, -1), 2},
	}
	for _, tt := range tests {
		if got := b.Dist(tt.p); got != tt.want {
			t.Errorf("Dist(%v) = %d, want %d", tt.p, got, tt.want)
		}
	}
}

func TestBoxPoints(t *testing.T) {
	b := mustBox(t, 2, P(0, 0), P(1, 2))
	pts := b.Points()
	if int64(len(pts)) != b.Volume() {
		t.Fatalf("got %d points, want %d", len(pts), b.Volume())
	}
	seen := make(map[Point]bool, len(pts))
	for _, p := range pts {
		if !b.Contains(p) {
			t.Errorf("point %v outside box", p)
		}
		if seen[p] {
			t.Errorf("duplicate point %v", p)
		}
		seen[p] = true
	}
	// AppendPoints extends the buffer it is given and keeps its prefix.
	buf := b.AppendPoints([]Point{P(9, 9)})
	if len(buf) != 1+len(pts) || buf[0] != P(9, 9) || buf[1] != pts[0] || buf[len(buf)-1] != pts[len(pts)-1] {
		t.Errorf("AppendPoints = %v, want P(9, 9) then %v", buf, pts)
	}
}

// TestPointsAtInt32Edge pins Points on boxes that reach an end of the int32
// range, where incrementing a coordinate past Hi wraps: each must list
// exactly its points in row-major order, which a nested loop in int64
// counts out. The odometer used to increment before comparing, so
// (MaxInt32, 0) went on to (MinInt32, 0) and never ended.
func TestPointsAtInt32Edge(t *testing.T) {
	const top, bottom = math.MaxInt32, math.MinInt32
	for _, b := range []Box{
		{Lo: P(top, 0), Hi: P(top, 0), Dim: 2},
		{Lo: P(0, top-1), Hi: P(0, top), Dim: 2},
		{Lo: P(top-2, top-1), Hi: P(top, top), Dim: 2},
		{Lo: P(bottom), Hi: P(bottom + 1), Dim: 1},
		{Lo: P(top), Hi: P(top), Dim: 1},
		{Lo: P(bottom, top-1, 0, top), Hi: P(bottom+1, top, 1, top), Dim: 4},
	} {
		var want []Point
		var walk func(p Point, axis int)
		walk = func(p Point, axis int) {
			if axis == b.Dim {
				want = append(want, p)
				return
			}
			for c := int64(b.Lo[axis]); c <= int64(b.Hi[axis]); c++ {
				p[axis] = int32(c)
				walk(p, axis+1)
			}
		}
		walk(Point{}, 0)
		if got := b.Points(); !slices.Equal(got, want) {
			t.Errorf("Points of %v..%v = %v, want %v", b.Lo, b.Hi, got, want)
		}
	}
}

// Dist returns the L1 distance from p to the box (0 if p is inside).
func (b Box) Dist(p Point) int {
	d := 0
	for i := 0; i < b.Dim; i++ {
		switch {
		case p[i] < b.Lo[i]:
			d += int(b.Lo[i] - p[i])
		case p[i] > b.Hi[i]:
			d += int(p[i] - b.Hi[i])
		}
	}
	return d
}

// NeighborhoodPoints enumerates N_r(b) by scanning the bounding box
// Expand(r) in row-major order: the oracle for the closed-form counts and
// for AppendBall's points and their order.
func NeighborhoodPoints(b Box, r int) []Point {
	bound := b.Expand(r)
	var out []Point
	for _, p := range bound.Points() {
		if b.Dist(p) <= r {
			out = append(out, p)
		}
	}
	return out
}

// TestAppendBallMatchesNeighborhoodPoints pins the ball lister to the box
// scan in 1-4-D: translated by a point q, AppendBall's offsets are
// NeighborhoodPoints around q, point for point and in the same order, and
// the prefix of the buffer it is given is kept.
func TestAppendBallMatchesNeighborhoodPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for dim := 1; dim <= MaxDim; dim++ {
		for r := 0; r <= 7-dim; r++ {
			var q Point
			for i := 0; i < dim; i++ {
				q[i] = int32(rng.Intn(21) - 10)
			}
			want := NeighborhoodPoints(mustBox(t, dim, q, q), r)
			got := AppendBall([]Point{P(9, 9)}, dim, r)
			if len(got) != 1+len(want) || got[0] != P(9, 9) {
				t.Fatalf("%d-D r=%d: %d offsets after the prefix, want %d", dim, r, len(got)-1, len(want))
			}
			for i, d := range got[1:] {
				if p := q.Add(d); p != want[i] {
					t.Fatalf("%d-D r=%d: point %d is %v, want %v", dim, r, i, p, want[i])
				}
			}
		}
	}
	if got := AppendBall(nil, 2, -1); len(got) != 0 {
		t.Errorf("negative radius listed %v", got)
	}
}

// TestAppendBallAllocs pins the lister's growth to one allocation, and none
// into a buffer that already holds the ball; the closed-form float count it
// sizes with allocates nothing.
func TestAppendBallAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(10, func() { _ = AppendBall(nil, 3, 5) }); got != 1 {
		t.Errorf("AppendBall into nil allocated %v times, want 1", got)
	}
	buf := AppendBall(nil, 3, 5)
	if got := testing.AllocsPerRun(10, func() { buf = AppendBall(buf[:0], 3, 5) }); got != 0 {
		t.Errorf("AppendBall into a sized buffer allocated %v times, want 0", got)
	}
	b := mustBox(t, 3, P(0, 0, 0), P(4, 2, 7))
	if got := testing.AllocsPerRun(10, func() { _ = NeighborhoodCountFloat(b, 6) }); got != 0 {
		t.Errorf("NeighborhoodCountFloat allocated %v times, want 0", got)
	}
}

func TestNeighborhoodCountKnownValues(t *testing.T) {
	// L1 ball sizes around a single point: 1-D: 2r+1; 2-D: 2r^2+2r+1.
	pt := mustBox(t, 2, P(0, 0), P(0, 0))
	for r := int64(0); r <= 10; r++ {
		want := 2*r*r + 2*r + 1
		got, err := NeighborhoodCount(pt, r)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("2-D ball r=%d: got %d, want %d", r, got, want)
		}
	}
	line := mustBox(t, 1, P(0), P(9))
	got, err := NeighborhoodCount(line, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 10+6 { // segment of 10 plus 3 each side
		t.Errorf("1-D segment: got %d, want 16", got)
	}
}

func TestNeighborhoodCountMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		dim := 1 + rng.Intn(3)
		var lo, hi Point
		for i := 0; i < dim; i++ {
			lo[i] = int32(rng.Intn(5) - 2)
			hi[i] = lo[i] + int32(rng.Intn(4))
		}
		b, err := NewBox(dim, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.Intn(6)
		want := int64(len(NeighborhoodPoints(b, r)))
		got, err := NeighborhoodCount(b, int64(r))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("dim=%d box=%v..%v r=%d: closed form %d, enumeration %d",
				dim, lo, hi, r, got, want)
		}
		gotF := NeighborhoodCountFloat(b, float64(r)+0.7)
		if int64(gotF+0.5) != want {
			t.Errorf("float count mismatch: %v vs %d", gotF, want)
		}
	}
}

func TestNeighborhoodCountNegativeRadius(t *testing.T) {
	b := mustBox(t, 2, P(0, 0), P(1, 1))
	if _, err := NeighborhoodCount(b, -1); err == nil {
		t.Error("negative radius should error")
	}
	if NeighborhoodCountFloat(b, -2) != 0 {
		t.Error("float count for negative radius should be 0")
	}
}

func TestBinomial(t *testing.T) {
	tests := []struct {
		n    int64
		k    int
		want int64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 1, 5}, {5, 2, 10}, {5, 5, 1},
		{5, 6, 0}, {10, 3, 120}, {52, 4, 270725},
	}
	for _, tt := range tests {
		got, err := binomial(tt.n, tt.k)
		if err != nil {
			t.Fatalf("binomial(%d,%d): %v", tt.n, tt.k, err)
		}
		if got != tt.want {
			t.Errorf("binomial(%d,%d) = %d, want %d", tt.n, tt.k, got, tt.want)
		}
	}
}

func TestElementarySymmetric(t *testing.T) {
	e := elementarySymmetric([]int64{2, 3, 4})
	want := []int64{1, 9, 26, 24}
	for i := range want {
		if e[i] != want[i] {
			t.Fatalf("e = %v, want %v", e, want)
		}
	}
}

func TestExpandContainsNeighborhood(t *testing.T) {
	f := func(lox, loy, w, h uint8, r uint8) bool {
		b, err := NewBox(2, P(int(lox%10), int(loy%10)),
			P(int(lox%10)+int(w%5), int(loy%10)+int(h%5)))
		if err != nil {
			return false
		}
		rr := int(r % 6)
		exp := b.Expand(rr)
		for _, p := range NeighborhoodPoints(b, rr) {
			if !exp.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// NeighborhoodCount returns |N_r(b)| exactly: the number of lattice points of
// Z^dim within L1 distance r of the box b. This is the central counting
// primitive of the thesis (the denominator of omega_T in eq. 1.1).
//
// Derivation: a point at offset vector t (t_i = distance outside the box
// along axis i, 0 if within the slab) is in N_r iff sum t_i <= r. Axis i
// contributes a_i positions when t_i = 0 and exactly 2 positions (one per
// side) for each t_i >= 1. Grouping by the set S of axes with t_i >= 1:
//
//	|N_r(b)| = sum over k=0..dim of 2^k * C(r, k) * e_{dim-k}(a)
//
// where e_j is the elementary symmetric polynomial of the side lengths a and
// C(r, k) counts positive integer k-vectors with sum <= r.
func NeighborhoodCount(b Box, r int64) (int64, error) {
	if r < 0 {
		return 0, fmt.Errorf("grid: negative radius %d", r)
	}
	sides := make([]int64, b.Dim)
	for i := range sides {
		sides[i] = b.Side(i)
	}
	elem := elementarySymmetric(sides)
	total := int64(0)
	pow2 := int64(1)
	for k := 0; k <= b.Dim; k++ {
		c, err := binomial(r, k)
		if err != nil {
			return 0, err
		}
		e := elem[b.Dim-k]
		term, err := mulChecked(pow2, c)
		if err != nil {
			return 0, err
		}
		term, err = mulChecked(term, e)
		if err != nil {
			return 0, err
		}
		if total > math.MaxInt64-term {
			return 0, ErrOverflow
		}
		total += term
		pow2 *= 2
	}
	return total, nil
}

// binomial returns C(n, k) as int64, or an overflow error. k is tiny
// (k <= MaxDim) so the product form is exact with intermediate checks.
func binomial(n int64, k int) (int64, error) {
	if k < 0 || n < 0 {
		return 0, nil
	}
	if int64(k) > n {
		return 0, nil
	}
	result := int64(1)
	for i := 1; i <= k; i++ {
		// Multiply before divide stays exact because result always holds
		// C(n, i-1) * (partial numerator), and C(n,i)*i! fits whenever the
		// final product fits; guard multiplication against overflow.
		f := n - int64(k-i)
		if result > math.MaxInt64/f {
			return 0, ErrOverflow
		}
		result = result * f / int64(i)
	}
	return result, nil
}

// elementarySymmetric returns [e_0, e_1, ..., e_n] for the given values.
func elementarySymmetric(vals []int64) []int64 {
	e := make([]int64, len(vals)+1)
	e[0] = 1
	for _, v := range vals {
		for j := len(vals); j >= 1; j-- {
			e[j] += e[j-1] * v
		}
	}
	return e
}
