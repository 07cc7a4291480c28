package demand

import (
	"errors"
	"maps"
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

func TestMapBasics(t *testing.T) {
	m := NewMap(2)
	if m.Dim() != 2 || m.Total() != 0 || m.Max() != 0 {
		t.Fatal("empty map invariants")
	}
	if err := m.Add(grid.P(1, 2), 5); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(grid.P(1, 2), 3); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(grid.P(0, 0), 2); err != nil {
		t.Fatal(err)
	}
	if m.At(grid.P(1, 2)) != 8 || m.Total() != 10 || m.Max() != 8 {
		t.Fatalf("At=%d Total=%d Max=%d", m.At(grid.P(1, 2)), m.Total(), m.Max())
	}
	if m.At(grid.P(9, 9)) != 0 {
		t.Error("missing point should read 0")
	}
	if err := m.Add(grid.P(0, 0), -1); err == nil {
		t.Error("negative add should fail")
	}
	if err := m.Add(grid.P(3, 3), 0); err != nil || m.SupportSize() != 2 {
		t.Error("zero add should be a no-op")
	}
	if got := maps.Collect(m.All()); !maps.Equal(got, map[grid.Point]int64{grid.P(1, 2): 8, grid.P(0, 0): 2}) {
		t.Errorf("All = %v", got)
	}
}

// TestAddRejectsTotalOverflow pins Add's refusal of jobs that would take
// the total past MaxInt64, where it used to wrap negative: a total of
// exactly MaxInt64 is accepted, one more job is refused with
// grid.ErrOverflow, and the map stays as it was.
func TestAddRejectsTotalOverflow(t *testing.T) {
	m := NewMap(2)
	if err := m.Add(grid.P(0, 0), math.MaxInt64-1); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(grid.P(1, 0), 1); err != nil {
		t.Fatalf("a total of exactly MaxInt64 refused: %v", err)
	}
	for _, p := range []grid.Point{grid.P(0, 0), grid.P(2, 0)} {
		if err := m.Add(p, 1); !errors.Is(err, grid.ErrOverflow) {
			t.Errorf("Add(%v, 1) past MaxInt64: %v, want grid.ErrOverflow", p, err)
		}
	}
	if m.Total() != math.MaxInt64 || m.SupportSize() != 2 || m.At(grid.P(0, 0)) != math.MaxInt64-1 {
		t.Errorf("refused Adds changed the map: total %d, support %d", m.Total(), m.SupportSize())
	}
}

// TestAddRejectsOffLattice pins Add's refusals: a map dimension outside
// [1, grid.MaxDim], and a point with a nonzero coordinate at an axis >= the
// map's dimension, whose extra axes BoundingBox used to take from whichever
// point map iteration met first. A refused Add leaves the map as it was.
func TestAddRejectsOffLattice(t *testing.T) {
	for _, tc := range []struct {
		dim int
		p   grid.Point
	}{{0, grid.P(1)}, {grid.MaxDim + 1, grid.P(1)}, {1, grid.P(3, 5)}, {2, grid.P(0, 1, 2)}, {3, grid.P(0, 0, 0, 7)}} {
		m := NewMap(tc.dim)
		if err := m.Add(tc.p, 5); err == nil || m.Total() != 0 || m.SupportSize() != 0 {
			t.Errorf("%d-D map, Add at %v: err %v, total %d", tc.dim, tc.p, err, m.Total())
		}
	}
	m := NewMap(grid.MaxDim)
	if err := m.Add(grid.P(1, 2, 3, 4), 5); err != nil {
		t.Errorf("%d-D point refused: %v", grid.MaxDim, err)
	}
}

func TestSupportSorted(t *testing.T) {
	m := NewMap(2)
	pts := []grid.Point{grid.P(3, 1), grid.P(0, 2), grid.P(3, 0), grid.P(0, 1)}
	for _, p := range pts {
		if err := m.Add(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	sup := m.Support()
	for i := 1; i < len(sup); i++ {
		if !sup[i-1].Less(sup[i]) {
			t.Fatalf("support not sorted: %v", sup)
		}
	}
}

// TestSupportAllocs pins Support to one allocation, the returned slice: the
// sort takes a static comparison function, so it allocates nothing.
func TestSupportAllocs(t *testing.T) {
	m := NewMap(2)
	for i := 0; i < 60; i++ {
		if err := m.Add(grid.P(i%8, i/8), int64(1+i%3)); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(20, func() { _ = m.Support() }); got != 1 {
		t.Errorf("Support allocated %v times, want 1", got)
	}
}

func TestBoundingBox(t *testing.T) {
	m := NewMap(2)
	if _, ok := m.BoundingBox(); ok {
		t.Error("empty map should have no bbox")
	}
	for _, p := range []grid.Point{grid.P(2, 5), grid.P(-1, 3), grid.P(4, 4)} {
		if err := m.Add(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	b, ok := m.BoundingBox()
	if !ok || b.Lo != grid.P(-1, 3) || b.Hi != grid.P(4, 5) {
		t.Fatalf("bbox %v..%v ok=%v", b.Lo, b.Hi, ok)
	}
}

// scanBox is the full-scan reference for BoundingBox: the walk over the
// support that Add's running corners replace.
func scanBox(m *Map) (lo, hi grid.Point) {
	first := true
	for p := range m.d {
		if first {
			lo, hi, first = p, p, false
		}
		for i := 0; i < m.dim; i++ {
			lo[i], hi[i] = min(lo[i], p[i]), max(hi[i], p[i])
		}
	}
	return lo, hi
}

// TestAddKeepsBoundingBox runs random Add sequences on 1- to 4-D maps and
// checks BoundingBox against a full scan after every call: counts of 0,
// negative counts, points off the lattice and additions past MaxInt64 are
// mixed in, and none of them may move the box.
func TestAddKeepsBoundingBox(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		dim := 1 + trial%grid.MaxDim
		m := NewMap(dim)
		for call := 0; call < 60; call++ {
			var p grid.Point
			for i := 0; i < dim; i++ {
				p[i] = int32(rng.Intn(21) - 10)
			}
			n := int64(rng.Intn(5))
			switch rng.Intn(10) {
			case 0:
				n = -1 - n
			case 1:
				if dim < grid.MaxDim {
					p[dim+rng.Intn(grid.MaxDim-dim)] = 1 // off the lattice
				}
			case 2:
				n = math.MaxInt64 - m.Total() + int64(rng.Intn(2)) // exactly to MaxInt64, or past it
			}
			err := m.Add(p, n)
			lo, hi := scanBox(m)
			box, ok := m.BoundingBox()
			if ok != (m.SupportSize() > 0) || ok && (box.Lo != lo || box.Hi != hi || box.Dim != dim) {
				t.Fatalf("trial %d call %d: Add(%v, %d) = %v; BoundingBox %v..%v (%d-D) ok=%v, scan %v..%v",
					trial, call, p, n, err, box.Lo, box.Hi, box.Dim, ok, lo, hi)
			}
			if m.Total() == math.MaxInt64 {
				m = NewMap(dim) // start over: only refusals are left
			}
		}
	}
}

func TestSumIn(t *testing.T) {
	m, err := Square(grid.P(0, 0), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := grid.NewBox(2, grid.P(1, 1), grid.P(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.SumIn(inner); got != 8 {
		t.Errorf("SumIn inner = %d, want 8", got)
	}
	if got := m.SumIn(m.mustBBox(t)); got != m.Total() {
		t.Errorf("SumIn bbox = %d, want %d", got, m.Total())
	}
}

func (m *Map) mustBBox(t *testing.T) grid.Box {
	t.Helper()
	b, ok := m.BoundingBox()
	if !ok {
		t.Fatal("no bbox")
	}
	return b
}

func TestGenerators(t *testing.T) {
	t.Run("square", func(t *testing.T) {
		m, err := Square(grid.P(2, 3), 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		if m.Total() != 9*4 || m.SupportSize() != 9 || m.At(grid.P(4, 5)) != 4 {
			t.Errorf("square: total=%d support=%d", m.Total(), m.SupportSize())
		}
		if _, err := Square(grid.P(0, 0), 0, 1); err == nil {
			t.Error("side 0 should fail")
		}
	})
	t.Run("line", func(t *testing.T) {
		m, err := Line(grid.P(1, 1), 5, 3)
		if err != nil {
			t.Fatal(err)
		}
		if m.Total() != 15 || m.At(grid.P(5, 1)) != 3 || m.At(grid.P(6, 1)) != 0 {
			t.Error("line shape wrong")
		}
		if _, err := Line(grid.P(0, 0), 0, 1); err == nil {
			t.Error("length 0 should fail")
		}
	})
	t.Run("point", func(t *testing.T) {
		m, err := PointMass(2, grid.P(7, 7), 100)
		if err != nil {
			t.Fatal(err)
		}
		if m.Total() != 100 || m.SupportSize() != 1 {
			t.Error("point mass wrong")
		}
	})
	t.Run("uniform", func(t *testing.T) {
		b, err := grid.NewBox(2, grid.P(0, 0), grid.P(9, 9))
		if err != nil {
			t.Fatal(err)
		}
		m, err := Uniform(rand.New(rand.NewSource(1)), b, 500)
		if err != nil {
			t.Fatal(err)
		}
		if m.Total() != 500 {
			t.Errorf("uniform total %d", m.Total())
		}
		for _, p := range m.Support() {
			if !b.Contains(p) {
				t.Errorf("point %v escaped the box", p)
			}
		}
	})
	t.Run("clusters", func(t *testing.T) {
		b, err := grid.NewBox(2, grid.P(0, 0), grid.P(31, 31))
		if err != nil {
			t.Fatal(err)
		}
		m, err := Clusters(rand.New(rand.NewSource(2)), b, 3, 100, 4)
		if err != nil {
			t.Fatal(err)
		}
		if m.Total() != 300 {
			t.Errorf("clusters total %d", m.Total())
		}
		if _, err := Clusters(rand.New(rand.NewSource(2)), b, 0, 1, 1); err == nil {
			t.Error("0 clusters should fail")
		}
		if _, err := Clusters(rand.New(rand.NewSource(2)), b, 1, 1, -1); err == nil {
			t.Error("negative spread should fail")
		}
	})
	t.Run("zipf", func(t *testing.T) {
		b, err := grid.NewBox(2, grid.P(0, 0), grid.P(15, 15))
		if err != nil {
			t.Fatal(err)
		}
		m, err := Zipf(rand.New(rand.NewSource(3)), b, 1000, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		if m.Total() != 1000 {
			t.Errorf("zipf total %d", m.Total())
		}
		if m.Max() < 50 {
			t.Errorf("zipf should have a hot spot, max=%d", m.Max())
		}
		if _, err := Zipf(rand.New(rand.NewSource(3)), b, 10, 1.0); err == nil {
			t.Error("skew <= 1 should fail")
		}
	})
	t.Run("alternating", func(t *testing.T) {
		m, seq, err := Alternating(2, grid.P(0, 0), grid.P(4, 0), 3)
		if err != nil {
			t.Fatal(err)
		}
		if m.Total() != 6 || seq.Len() != 6 {
			t.Error("alternating sizes wrong")
		}
		for i := 0; i < seq.Len(); i++ {
			want := grid.P(0, 0)
			if i%2 == 1 {
				want = grid.P(4, 0)
			}
			if seq.At(i) != want {
				t.Fatalf("arrival %d = %v", i, seq.At(i))
			}
		}
	})
}

func TestSequenceOfPreservesMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b, err := grid.NewBox(2, grid.P(0, 0), grid.P(7, 7))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Uniform(rng, b, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range []Order{OrderSorted, OrderShuffled, OrderRoundRobin} {
		seq, err := SequenceOf(m, order, rng)
		if err != nil {
			t.Fatalf("%v: %v", order, err)
		}
		back := NewMap(2)
		for i := 0; i < seq.Len(); i++ {
			if err := back.Add(seq.At(i), 1); err != nil {
				t.Fatal(err)
			}
		}
		if back.Total() != m.Total() {
			t.Fatalf("%v: total %d != %d", order, back.Total(), m.Total())
		}
		for _, p := range m.Support() {
			if back.At(p) != m.At(p) {
				t.Fatalf("%v: demand at %v %d != %d", order, p, back.At(p), m.At(p))
			}
		}
	}
	if _, err := SequenceOf(m, OrderShuffled, nil); err == nil {
		t.Error("shuffled without rng should fail")
	}
	if _, err := SequenceOf(m, Order(42), rng); err == nil {
		t.Error("unknown order should fail")
	}
}

// TestSequenceOfRefusesTotalPastInt32 pins SequenceOf's limit: a map of
// exactly 2^31 jobs, one past math.MaxInt32, is refused under every order,
// the unknown one included, before its 32 GB of arrivals are allocated.
func TestSequenceOfRefusesTotalPastInt32(t *testing.T) {
	m := NewMap(2)
	if err := m.Add(grid.P(3, 4), 1<<31); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, order := range []Order{OrderSorted, OrderShuffled, OrderRoundRobin, Order(42)} {
		seq, err := SequenceOf(m, order, rng)
		if err == nil || seq != nil {
			t.Errorf("%v: 2^31 jobs gave a sequence (%v), want an error", order, err)
		}
	}
}

func TestRoundRobinInterleaves(t *testing.T) {
	m := NewMap(2)
	a, b := grid.P(0, 0), grid.P(5, 0)
	if err := m.Add(a, 3); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(b, 3); err != nil {
		t.Fatal(err)
	}
	seq, err := SequenceOf(m, OrderRoundRobin, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < seq.Len()-1; i++ {
		if seq.At(i) == seq.At(i+1) {
			t.Fatalf("round robin emitted same position twice in a row at %d", i)
		}
	}
}

func TestOrderString(t *testing.T) {
	for _, o := range []Order{OrderSorted, OrderShuffled, OrderRoundRobin, Order(9)} {
		if o.String() == "" {
			t.Errorf("empty string for %d", int(o))
		}
	}
}

func TestNewSequenceCopies(t *testing.T) {
	src := []grid.Point{grid.P(1, 1)}
	s := NewSequence(src)
	src[0] = grid.P(9, 9)
	if s.At(0) != grid.P(1, 1) {
		t.Error("NewSequence must copy its input")
	}
}
