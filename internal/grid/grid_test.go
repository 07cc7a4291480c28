package grid

import (
	"math/rand"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("no sizes should fail")
	}
	if _, err := New(4, 0); err == nil {
		t.Error("zero size should fail")
	}
	if _, err := New(1, 2, 3, 4, 5); err == nil {
		t.Error("too many dims should fail")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic on invalid sizes")
		}
	}()
	MustNew(0)
}

func TestIndexRoundTrip(t *testing.T) {
	for _, sizes := range [][]int{{7}, {4, 5}, {3, 4, 5}, {2, 3, 2, 3}} {
		g := MustNew(sizes...)
		seen := make(map[int64]bool)
		for _, p := range g.Bounds().Points() {
			idx := g.Index(p)
			if idx < 0 || idx >= g.Len() {
				t.Fatalf("index %d out of range for %v", idx, p)
			}
			if seen[idx] {
				t.Fatalf("duplicate index %d", idx)
			}
			seen[idx] = true
			if back := g.PointAt(idx); back != p {
				t.Fatalf("PointAt(Index(%v)) = %v", p, back)
			}
		}
		if int64(len(seen)) != g.Len() {
			t.Fatalf("covered %d of %d indices", len(seen), g.Len())
		}
	}
}

func TestContains(t *testing.T) {
	g := MustNew(4, 4)
	if !g.Contains(P(0, 0)) || !g.Contains(P(3, 3)) {
		t.Error("corners should be inside")
	}
	for _, p := range []Point{P(-1, 0), P(4, 0), P(0, 4), P(0, 0, 1)} {
		if g.Contains(p) {
			t.Errorf("%v should be outside", p)
		}
	}
}

func TestPrefixSumMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sizes := range [][]int{{8}, {6, 7}, {4, 3, 5}} {
		g := MustNew(sizes...)
		vals := make([]int64, g.Len())
		for i := range vals {
			vals[i] = int64(rng.Intn(20) - 5)
		}
		ps, err := NewPrefixSum(g, vals)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 100; trial++ {
			var lo, hi Point
			for i := 0; i < g.Dim(); i++ {
				a := rng.Intn(g.Size(i) + 3)
				b := rng.Intn(g.Size(i) + 3)
				if a > b {
					a, b = b, a
				}
				lo[i], hi[i] = int32(a-1), int32(b-1) // may clip outside
				if hi[i] < lo[i] {
					hi[i] = lo[i]
				}
			}
			box := Box{Lo: lo, Hi: hi, Dim: g.Dim()}
			want := int64(0)
			for _, p := range g.Bounds().Points() {
				if box.Contains(p) {
					want += vals[g.Index(p)]
				}
			}
			if got := ps.BoxSum(box); got != want {
				t.Fatalf("sizes=%v box=%v..%v: BoxSum=%d brute=%d",
					sizes, lo, hi, got, want)
			}
		}
	}
}

func TestPrefixSumLengthMismatch(t *testing.T) {
	g := MustNew(3, 3)
	if _, err := NewPrefixSum(g, make([]int64, 5)); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestMaxCubeSum(t *testing.T) {
	g := MustNew(5, 5)
	vals := make([]int64, g.Len())
	vals[g.Index(P(2, 2))] = 100
	vals[g.Index(P(2, 3))] = 50
	vals[g.Index(P(0, 0))] = 10
	ps, err := NewPrefixSum(g, vals)
	if err != nil {
		t.Fatal(err)
	}
	best, _, ok := ps.MaxCubeSum(1)
	if !ok || best != 100 {
		t.Errorf("side 1: best=%d ok=%v", best, ok)
	}
	best, corner, ok := ps.MaxCubeSum(2)
	if !ok || best != 150 {
		t.Errorf("side 2: best=%d corner=%v", best, corner)
	}
	c, err := Cube(2, corner, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Contains(P(2, 2)) || !c.Contains(P(2, 3)) {
		t.Errorf("winning cube %v misses the mass", corner)
	}
	if best, _, ok = ps.MaxCubeSum(5); !ok || best != 160 {
		t.Errorf("side 5: best=%d ok=%v", best, ok)
	}
	if _, _, ok = ps.MaxCubeSum(6); ok {
		t.Error("side 6 should not fit")
	}
}
