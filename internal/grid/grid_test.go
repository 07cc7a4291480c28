package grid

import (
	"errors"
	"math"
	"math/rand"
	"slices"
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

// tableOf builds the summed-area table over the window win of g for vals,
// indexed by g.Index, whose entries outside win must be zero.
func tableOf(t testing.TB, g *Grid, win Box, vals []int64) PrefixSum {
	t.Helper()
	ps, err := NewPrefixSum(g, win)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range win.Points() {
		ps.Add(p, vals[g.Index(p)])
	}
	ps.Accumulate()
	return ps
}

// randomWindow returns a random nonempty box inside g.
func randomWindow(rng *rand.Rand, g *Grid) Box {
	b := Box{Dim: g.Dim()}
	for i := 0; i < g.Dim(); i++ {
		lo, hi := rng.Intn(g.Size(i)), rng.Intn(g.Size(i))
		b.Lo[i], b.Hi[i] = int32(min(lo, hi)), int32(max(lo, hi))
	}
	return b
}

// TestPrefixSumMatchesBruteForce pins Sum to a cell-by-cell sum, on boxes
// partly or wholly outside the grid, for tables over the whole grid with
// values in {-5, ..., 14} and over a random window holding values in
// {0, ..., 19}.
func TestPrefixSumMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sizes := range [][]int{{8}, {6, 7}, {4, 3, 5}, {3, 4, 2, 5}} {
		g := MustNew(sizes...)
		for _, windowed := range []bool{false, true} {
			win, shift := g.Bounds(), 5
			if windowed {
				win, shift = randomWindow(rng, g), 0
			}
			vals := make([]int64, g.Len())
			for _, p := range win.Points() {
				vals[g.Index(p)] = int64(rng.Intn(20) - shift)
			}
			ps := tableOf(t, g, win, vals)
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
				if got := ps.Sum(box); got != want {
					t.Fatalf("sizes=%v window %v..%v box=%v..%v: Sum=%d brute=%d",
						sizes, win.Lo, win.Hi, lo, hi, got, want)
				}
			}
		}
	}
}

// TestPrefixSumResetMatchesNew builds 400 tables in turn on one PrefixSum,
// in 1-4-D grids, over windows that grow and shrink, each holding random
// values in {0, ..., 9}: after Reset, Add and Accumulate, every Sum over
// random boxes and every MaxCubeSum must equal a fresh table's. A window no
// larger than the storage so far must reuse it. A refused window and the
// zero Box over a nil grid leave an empty table that refers to no grid and
// keeps the storage.
func TestPrefixSumResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	var ps PrefixSum
	reused := 0
	for trial := range 400 {
		sizes := make([]int, 1+rng.Intn(MaxDim))
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(12-2*len(sizes))
		}
		g := MustNew(sizes...)
		win := randomWindow(rng, g)
		storage := ps.sum[:cap(ps.sum)]
		if err := ps.Reset(g, win); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewPrefixSum(g, win)
		if err != nil {
			t.Fatal(err)
		}
		if len(ps.sum) <= len(storage) {
			if &ps.sum[0] != &storage[0] {
				t.Fatalf("trial %d: a window of %d entries left storage of %d", trial, len(ps.sum), len(storage))
			}
			reused++
		}
		for _, p := range win.Points() {
			v := int64(rng.Intn(10))
			ps.Add(p, v)
			fresh.Add(p, v)
		}
		ps.Accumulate()
		fresh.Accumulate()
		for range 20 {
			if b := randomWindow(rng, g); ps.Sum(b) != fresh.Sum(b) {
				t.Fatalf("trial %d: Sum over %v..%v = %d after Reset, %d fresh", trial, b.Lo, b.Hi, ps.Sum(b), fresh.Sum(b))
			}
		}
		for s := 0; s <= g.MinSize()+1; s++ {
			if got, want := ps.MaxCubeSum(s), fresh.MaxCubeSum(s); got != want {
				t.Fatalf("trial %d: MaxCubeSum(%d) = %d after Reset, %d fresh", trial, s, got, want)
			}
		}
	}
	if reused < 300 {
		t.Errorf("only %d of 400 tables reused the storage", reused)
	}
	storage := cap(ps.sum)
	g := MustNew(3, 3)
	if err := ps.Reset(g, Box{Lo: P(0, 0), Hi: P(3, 2), Dim: 2}); err == nil {
		t.Error("a window outside the grid was accepted")
	}
	if ps.Grid() != nil || ps.Window() != (Box{}) || ps.Sum(g.Bounds()) != 0 || cap(ps.sum) != storage {
		t.Errorf("after a refused window: grid %v, window %v, Sum %d, storage %d of %d", ps.Grid(), ps.Window(), ps.Sum(g.Bounds()), cap(ps.sum), storage)
	}
	if err := ps.Reset(g, g.Bounds()); err != nil {
		t.Fatal(err)
	}
	if err := ps.Reset(nil, Box{}); err != nil || ps.Grid() != nil || cap(ps.sum) != storage {
		t.Errorf("Reset(nil, Box{}): error %v, grid %v, storage %d of %d", err, ps.Grid(), cap(ps.sum), storage)
	}
}

// TestPrefixSumRejectsWindowOutsideGrid pins NewPrefixSum's refusals: a
// window that leaves the grid, has another dimension or is inverted. The
// zero Box is the empty window, whose every sum is 0.
func TestPrefixSumRejectsWindowOutsideGrid(t *testing.T) {
	g := MustNew(3, 3)
	for _, b := range []Box{
		{Lo: P(0, 0), Hi: P(3, 2), Dim: 2},
		{Lo: P(-1, 0), Hi: P(2, 2), Dim: 2},
		{Lo: P(0, 0, 0), Hi: P(2, 2, 0), Dim: 3},
		{Lo: P(0), Hi: P(2), Dim: 1},
		{Lo: P(0, 0), Hi: P(0, 0, 1), Dim: 2},
		{Lo: P(2, 0), Hi: P(1, 2), Dim: 2},
	} {
		if _, err := NewPrefixSum(g, b); err == nil {
			t.Errorf("window %v..%v (dim %d) accepted", b.Lo, b.Hi, b.Dim)
		}
	}
	ps, err := NewPrefixSum(g, Box{})
	if err != nil {
		t.Fatal(err)
	}
	ps.Accumulate()
	if s, c := ps.Sum(g.Bounds()), ps.MaxCubeSum(2); s != 0 || c != 0 {
		t.Errorf("empty window: Sum %d, MaxCubeSum %d, want 0 and 0", s, c)
	}
}

func TestMaxCubeSum(t *testing.T) {
	g := MustNew(5, 5)
	vals := make([]int64, g.Len())
	vals[g.Index(P(2, 2))] = 100
	vals[g.Index(P(2, 3))] = 50
	vals[g.Index(P(0, 0))] = 10
	for _, win := range []Box{g.Bounds(), {Lo: P(0, 0), Hi: P(2, 3), Dim: 2}} {
		ps := tableOf(t, g, win, vals)
		for _, tt := range []struct {
			s    int
			want int64
		}{{1, 100}, {2, 150}, {3, 150}, {4, 160}, {5, 160}, {6, 0}, {0, 0}} {
			if got := ps.MaxCubeSum(tt.s); got != tt.want {
				t.Errorf("window %v..%v side %d: MaxCubeSum = %d, want %d", win.Lo, win.Hi, tt.s, got, tt.want)
			}
		}
	}
}

// TestMaxCubeSumMatchesEnumeration pins the strided scan to a brute-force
// maximum over every in-grid cube, summed cell by cell from the values, on
// random 1-4-D grids: tables over the whole grid whose values in
// {-1, ..., 2} give many ties and negative maxima, and tables over a random
// window (a single cell, a slab one cell thin, or any box) holding values
// in {0, ..., 3}, where the scan reads windows of side min(s, side_i).
// Sides 0 and MinSize()+1 admit no cube and must read 0.
func TestMaxCubeSumMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 600; trial++ {
		sizes := make([]int, 1+rng.Intn(MaxDim))
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(7)
		}
		g := MustNew(sizes...)
		win, shift := g.Bounds(), 1
		if trial%2 == 1 {
			win, shift = randomWindow(rng, g), 0
			switch trial % 6 {
			case 1:
				win.Hi = win.Lo
			case 3:
				a := rng.Intn(g.Dim())
				win.Hi[a] = win.Lo[a]
			}
		}
		vals := make([]int64, g.Len())
		for _, p := range win.Points() {
			vals[g.Index(p)] = int64(rng.Intn(4) - shift)
		}
		ps := tableOf(t, g, win, vals)
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
				t.Fatalf("sizes %v window %v..%v side %d: MaxCubeSum = %d, enumeration %d", sizes, win.Lo, win.Hi, s, got, want)
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

// TestTilesMeetingMatchesFilter pins the walk over TilesMeeting's tile
// coordinates through TileAt to the tiles of the whole tiling that meet a
// random window, in Tile's order with the same full flags, on random 1-4-D
// grids, sides 1 to two past the longest axis and math.MaxInt.
func TestTilesMeetingMatchesFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	meets := func(a, b Box) bool {
		for i := 0; i < a.Dim; i++ {
			if a.Hi[i] < b.Lo[i] || b.Hi[i] < a.Lo[i] {
				return false
			}
		}
		return true
	}
	type tile struct {
		b    Box
		full bool
	}
	for range 300 {
		sizes := make([]int, 1+rng.Intn(MaxDim))
		longest := 0
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(9)
			longest = max(longest, sizes[i])
		}
		g := MustNew(sizes...)
		win := randomWindow(rng, g)
		sides := []int{math.MaxInt}
		for s := 1; s <= longest+2; s++ {
			sides = append(sides, s)
		}
		for _, s := range sides {
			var want, got []tile
			for c := range g.Tiles(s) {
				if b, f := g.Tile(s, c); meets(b, win) {
					want = append(want, tile{b, f})
				}
			}
			for _, tc := range g.TilesMeeting(s, win).Points() {
				b, f := g.TileAt(s, tc)
				got = append(got, tile{b, f})
			}
			if !slices.Equal(got, want) {
				t.Fatalf("sizes %v window %v..%v side %d: walk %v, filter %v", sizes, win.Lo, win.Hi, s, got, want)
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
