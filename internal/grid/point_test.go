package grid

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestPConstruction(t *testing.T) {
	p := P(3, -2)
	if p.Coord(0) != 3 || p.Coord(1) != -2 || p.Coord(2) != 0 {
		t.Fatalf("P(3,-2) = %v", p)
	}
}

func TestPTooManyCoordsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for >MaxDim coordinates")
		}
	}()
	P(1, 2, 3, 4, 5)
}

func TestManhattan(t *testing.T) {
	tests := []struct {
		name string
		a, b Point
		want int
	}{
		{"same point", P(1, 2), P(1, 2), 0},
		{"unit step x", P(0, 0), P(1, 0), 1},
		{"unit step y", P(0, 0), P(0, -1), 1},
		{"diagonal", P(0, 0), P(3, 4), 7},
		{"negative coords", P(-2, -3), P(2, 3), 10},
		{"3d", P(1, 1, 1), P(2, 3, 5), 7},
		{"difference beyond int32", P(-2e9, 0), P(2e9, 0), 4_000_000_000},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Manhattan(tt.a, tt.b); got != tt.want {
				t.Errorf("Manhattan(%v,%v) = %d, want %d", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestManhattanMetricProperties(t *testing.T) {
	// Symmetry and triangle inequality, the metric axioms the energy
	// accounting depends on.
	f := func(ax, ay, bx, by, cx, cy int8) bool {
		a, b, c := P(int(ax), int(ay)), P(int(bx), int(by)), P(int(cx), int(cy))
		if Manhattan(a, b) != Manhattan(b, a) {
			return false
		}
		if Manhattan(a, c) > Manhattan(a, b)+Manhattan(b, c) {
			return false
		}
		return Manhattan(a, b) >= 0 && (Manhattan(a, b) == 0) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddSub(t *testing.T) {
	a, b := P(1, 2, 3), P(4, -5, 6)
	if got := a.Add(b); got != P(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Add(b).Add(P(-4, 5, -6)); got != a {
		t.Errorf("Add then add the negation = %v, want %v", got, a)
	}
}

func TestColorOf(t *testing.T) {
	if ColorOf(P(0, 0)) != Black {
		t.Error("origin should be black")
	}
	if ColorOf(P(0, 1)) != White {
		t.Error("(0,1) should be white")
	}
	if ColorOf(P(1, 1)) != Black {
		t.Error("(1,1) should be black")
	}
	// Adjacent points always have opposite colors (bipartiteness, which the
	// online strategy's pairing relies on).
	f := func(x, y int8, axis uint8, dir bool) bool {
		p := P(int(x), int(y))
		q := p
		d := int32(1)
		if !dir {
			d = -1
		}
		q[axis%2] += d
		return ColorOf(p) != ColorOf(q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sprintPoint is the rendering Point.String had before Point.Append: the
// coordinates up to the last nonzero one, at least two, each through fmt.
func sprintPoint(p Point) string {
	last := 1
	for i := 2; i < MaxDim; i++ {
		if p[i] != 0 {
			last = i
		}
	}
	parts := make([]string, last+1)
	for i := range parts {
		parts[i] = fmt.Sprint(p[i])
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// checkPointText checks String, Append onto a non-empty prefix and fmt's %v
// against sprintPoint.
func checkPointText(t *testing.T, p Point) {
	t.Helper()
	want := sprintPoint(p)
	if got := p.String(); got != want {
		t.Errorf("%#v.String() = %q, want %q", p, got, want)
	}
	if got := string(p.Append([]byte("at "))); got != "at "+want {
		t.Errorf("%#v.Append(\"at \") = %q, want %q", p, got, "at "+want)
	}
	if got := fmt.Sprintf("%v", p); got != want {
		t.Errorf("Sprintf(%%v, %#v) = %q, want %q", p, got, want)
	}
}

func TestPointString(t *testing.T) {
	const big = math.MaxInt32
	tests := []struct {
		p    Point
		want string
	}{
		{P(), "(0,0)"},
		{P(7), "(7,0)"},
		{P(1, -2), "(1,-2)"},
		{P(1, 2, 3), "(1,2,3)"},
		{P(1, 2, 0), "(1,2)"},
		{P(1, 0, 3, 0), "(1,0,3)"},
		{P(0, 0, 0, 4), "(0,0,0,4)"},
		{P(-1, -2, -3, -4), "(-1,-2,-3,-4)"},
		{P(big, -big, big, -big), "(2147483647,-2147483647,2147483647,-2147483647)"},
		{P(-big-1, -big-1, -big-1, -big-1), "(-2147483648,-2147483648,-2147483648,-2147483648)"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("%#v.String() = %q, want %q", tt.p, got, tt.want)
		}
		checkPointText(t, tt.p)
	}
}

func FuzzPointAppend(f *testing.F) {
	f.Add(int32(1), int32(-2), int32(0), int32(0))
	f.Add(int32(0), int32(0), int32(5), int32(0))
	f.Add(int32(0), int32(0), int32(0), int32(-5))
	f.Add(int32(math.MaxInt32), int32(-math.MaxInt32), int32(math.MinInt32), int32(1))
	f.Fuzz(func(t *testing.T, x, y, z, w int32) {
		checkPointText(t, Point{x, y, z, w})
	})
}

// TestPointAppendAllocs pins the costs callers build on: Append into a
// buffer with room allocates nothing, and String allocates only its result.
func TestPointAppendAllocs(t *testing.T) {
	p := P(math.MinInt32, math.MinInt32, math.MinInt32, math.MinInt32)
	buf := make([]byte, 0, 64)
	if got := testing.AllocsPerRun(10, func() { buf = p.Append(buf[:0]) }); got != 0 {
		t.Errorf("Append allocated %.0f objects, want 0", got)
	}
	if got := testing.AllocsPerRun(10, func() { _ = p.String() }); got != 1 {
		t.Errorf("String allocated %.0f objects, want 1", got)
	}
}

func TestColorString(t *testing.T) {
	if Black.String() != "black" || White.String() != "white" {
		t.Error("color names wrong")
	}
	if Color(99).String() == "" {
		t.Error("unknown color should still render")
	}
}
