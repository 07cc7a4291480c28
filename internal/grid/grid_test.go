package grid

import (
	"errors"
	"math"
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
	// Every dense layer indexes cells with int32: 2^31 cells fit, one more
	// axis of 2 does not.
	if _, err := New(1 << 31); err != nil {
		t.Errorf("2^31 cells: %v", err)
	}
	for _, sizes := range [][]int{{1 << 31, 2}, {2, 1 << 31}, {1 << 31, 1 << 31}, {1 << 32}, {1 << 16, 1 << 16, 1 << 16}} {
		if _, err := New(sizes...); !errors.Is(err, ErrOverflow) {
			t.Errorf("New(%v) = %v, want ErrOverflow", sizes, err)
		}
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

// boxSum is the table oracle: the sum of values over b clipped to the
// grid, by inclusion-exclusion over the box's 2^l table corners.
func boxSum(ps *PrefixSum, b Box) int64 {
	g := ps.g
	var lo, hi [MaxDim]int64
	for i := 0; i < g.dim; i++ {
		l := max(int64(b.Lo[i]), 0)
		h := min(int64(b.Hi[i])+1, int64(g.size[i]))
		if l >= h {
			return 0
		}
		lo[i], hi[i] = l, h
	}
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

func TestPrefixSumMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sizes := range [][]int{{8}, {6, 7}, {4, 3, 5}, {3, 4, 2, 5}} {
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
			if got := boxSum(ps, box); got != want {
				t.Fatalf("sizes=%v box=%v..%v: boxSum=%d brute=%d",
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
	for _, tt := range []struct {
		s    int
		want int64
	}{{1, 100}, {2, 150}, {5, 160}, {6, 0}, {0, 0}} {
		if got := ps.MaxCubeSum(tt.s); got != tt.want {
			t.Errorf("side %d: MaxCubeSum = %d, want %d", tt.s, got, tt.want)
		}
	}
}

// TestMaxCubeSumMatchesEnumeration pins the strided scan to a brute-force
// maximum over every in-grid cube, summed cell by cell from the values, on
// random 1-4-D grids whose values in {-1, ..., 2} give many ties and
// negative maxima. Sides 0 and MinSize()+1 admit no cube and must read 0.
func TestMaxCubeSumMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		sizes := make([]int, 1+rng.Intn(MaxDim))
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(7)
		}
		g := MustNew(sizes...)
		vals := make([]int64, g.Len())
		for i := range vals {
			vals[i] = int64(rng.Intn(4) - 1)
		}
		ps, err := NewPrefixSum(g, vals)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s <= g.MinSize()+1; s++ {
			want, found := int64(0), false
			for _, c := range g.Bounds().Points() {
				cube, err := Cube(g.Dim(), c, s)
				if err != nil || !g.Contains(cube.Hi) {
					continue
				}
				sum := int64(0)
				for _, p := range cube.Points() {
					sum += vals[g.Index(p)]
				}
				if !found || sum > want {
					want, found = sum, true
				}
			}
			if got := ps.MaxCubeSum(s); got != want {
				t.Fatalf("sizes %v side %d: MaxCubeSum = %d, enumeration %d", sizes, s, got, want)
			}
		}
	}
}

// odometerTiles lists the side-s tiles the way the offline schedule walked
// them before the tiling moved into Grid: an odometer over the low corners
// in row-major order, clipping each cube at the far faces.
func odometerTiles(g *Grid, s int) (boxes []Box, full []bool) {
	cube := Box{Dim: g.Dim()}
	for {
		f := true
		for i := 0; i < g.Dim(); i++ {
			hi := int(cube.Lo[i]) + s - 1
			if hi >= g.Size(i) {
				hi, f = g.Size(i)-1, false
			}
			cube.Hi[i] = int32(hi)
		}
		boxes, full = append(boxes, cube), append(full, f)
		axis := g.Dim() - 1
		for ; axis >= 0; axis-- {
			if next := int(cube.Lo[axis]) + s; next < g.Size(axis) {
				cube.Lo[axis] = int32(next)
				break
			}
			cube.Lo[axis] = 0
		}
		if axis < 0 {
			return boxes, full
		}
	}
}

// TestTilesMatchOdometer pins Tiles and Tile to the corner odometer: the
// same count, boxes, order and full flags on random 1-4-D grids, at every
// side from 1 to two past the longest axis (which covers 1 to MinSize()+2)
// and at math.MaxInt, where a clip computed as lo+s-1 would overflow.
func TestTilesMatchOdometer(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for range 300 {
		sizes := make([]int, 1+rng.Intn(MaxDim))
		longest := 0
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(9)
			longest = max(longest, sizes[i])
		}
		g := MustNew(sizes...)
		sides := []int{math.MaxInt}
		for s := 1; s <= longest+2; s++ {
			sides = append(sides, s)
		}
		for _, s := range sides {
			boxes, full := odometerTiles(g, s)
			if n := g.Tiles(s); n != len(boxes) {
				t.Fatalf("sizes %v side %d: %d tiles, odometer %d", sizes, s, n, len(boxes))
			}
			for c := range boxes {
				if b, f := g.Tile(s, c); b != boxes[c] || f != full[c] {
					t.Fatalf("sizes %v side %d: tile %d is %v full %v, odometer %v full %v",
						sizes, s, c, b, f, boxes[c], full[c])
				}
			}
		}
	}
}

func TestMinSize(t *testing.T) {
	for _, tt := range []struct {
		sizes []int
		want  int
	}{{[]int{7}, 7}, {[]int{4, 3}, 3}, {[]int{5, 6, 2, 9}, 2}} {
		if got := MustNew(tt.sizes...).MinSize(); got != tt.want {
			t.Errorf("MinSize(%v) = %d, want %d", tt.sizes, got, tt.want)
		}
	}
}
