package online

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/grid"
	"repro/internal/sim"
)

func TestNewPartitionValidation(t *testing.T) {
	if _, err := NewPartition(grid.MustNew(4, 4), 0); err == nil {
		t.Error("cube side 0 should fail")
	}
}

func TestSnakeOrderIsHamiltonianPath(t *testing.T) {
	for _, tc := range []struct {
		dim   int
		sides []int
	}{
		{1, []int{5}},
		{2, []int{3, 3}},
		{2, []int{4, 5}},
		{3, []int{3, 2, 3}},
		{3, []int{2, 2, 2}},
	} {
		var lo, hi grid.Point
		for i, s := range tc.sides {
			lo[i] = 1
			hi[i] = int32(s) // lo=1 so the box is offset from the origin
		}
		b, err := grid.NewBox(tc.dim, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]grid.Point, 0, b.Volume())
		path := snakeOrder(buf, b)
		if int64(len(path)) != b.Volume() {
			t.Fatalf("%v: path covers %d of %d cells", tc, len(path), b.Volume())
		}
		if &path[0] != &buf[:1][0] {
			t.Fatalf("%v: walk did not fill the buffer it was given", tc)
		}
		seen := make(map[grid.Point]bool)
		for i, p := range path {
			if !b.Contains(p) {
				t.Fatalf("%v: cell %v escapes box", tc, p)
			}
			if seen[p] {
				t.Fatalf("%v: cell %v repeated", tc, p)
			}
			seen[p] = true
			if i > 0 && grid.Manhattan(path[i-1], p) != 1 {
				t.Fatalf("%v: step %d not adjacent: %v -> %v", tc, i, path[i-1], p)
			}
		}
	}
}

func TestPartitionCoversArenaWithValidPairs(t *testing.T) {
	for _, tc := range []struct {
		sizes []int
		side  int
	}{
		{[]int{8, 8}, 4},
		{[]int{9, 9}, 3},  // odd cubes: one single per cube
		{[]int{10, 7}, 4}, // clipped boundary cubes
		{[]int{6}, 3},     // 1-D
		{[]int{4, 4, 4}, 2},
	} {
		arena := grid.MustNew(tc.sizes...)
		part, err := NewPartition(arena, tc.side)
		if err != nil {
			t.Fatal(err)
		}
		covered := 0
		for pi, pr := range part.Pairs() {
			cells := []grid.Point{pr.Cells[0]}
			if !pr.Single {
				cells = append(cells, pr.Cells[1])
				if grid.Manhattan(pr.Cells[0], pr.Cells[1]) != 1 {
					t.Errorf("%v: pair %d cells not adjacent", tc, pi)
				}
				if grid.ColorOf(pr.Cells[0]) == grid.ColorOf(pr.Cells[1]) {
					t.Errorf("%v: pair %d same color", tc, pi)
				}
				if grid.ColorOf(pr.Cells[0]) != grid.Black {
					t.Errorf("%v: pair %d service pos not black", tc, pi)
				}
			}
			for _, c := range cells {
				covered++
				got, ok := part.PairOf(c)
				if !ok || got != pi {
					t.Errorf("%v: PairOf(%v) = %d,%v want %d", tc, c, got, ok, pi)
				}
				if cube := int(part.cubeIdx[arena.Index(c)]); cube != pr.Cube {
					t.Errorf("%v: cell %v in cube %d, want %d", tc, c, cube, pr.Cube)
				}
			}
		}
		if int64(covered) != arena.Len() {
			t.Errorf("%v: pairs cover %d of %d cells", tc, covered, arena.Len())
		}
	}
}

func TestCommGraphWithinCubeAndConnected(t *testing.T) {
	arena := grid.MustNew(8, 8)
	part, err := NewPartition(arena, 4)
	if err != nil {
		t.Fatal(err)
	}
	for idx := int64(0); idx < arena.Len(); idx++ {
		cell := arena.PointAt(idx)
		for _, nb := range part.commIdx[idx] {
			if d := grid.Manhattan(cell, arena.PointAt(int64(nb))); d < 1 || d > 2 {
				t.Errorf("neighbor %d of %v at distance %d", nb, cell, d)
			}
			if part.cubeIdx[nb] != part.cubeIdx[idx] {
				t.Errorf("neighbor %d of %v crosses cube boundary", nb, cell)
			}
		}
	}
	// BFS inside cube 0 must reach all 16 cells.
	visited := map[sim.NodeID]bool{0: true}
	queue := []sim.NodeID{0}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range part.commIdx[cur] {
			if !visited[nb] {
				visited[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	if len(visited) != 16 {
		t.Errorf("cube comm graph reaches %d of 16 cells", len(visited))
	}
}

func TestWatcherPairRing(t *testing.T) {
	arena := grid.MustNew(6, 6)
	part, err := NewPartition(arena, 3)
	if err != nil {
		t.Fatal(err)
	}
	for cube := 0; cube < len(part.cubePairs); cube++ {
		pairs := part.CubePairs(cube)
		watchedBy := make(map[int]int)
		for _, p := range pairs {
			w := part.WatcherPair(p)
			if part.Pairs()[w].Cube != cube {
				t.Errorf("watcher of %d in wrong cube", p)
			}
			watchedBy[w]++
		}
		// Cyclic ring: every pair is a watcher exactly once.
		for _, p := range pairs {
			if watchedBy[p] != 1 {
				t.Errorf("cube %d: pair %d watches %d pairs, want 1", cube, p, watchedBy[p])
			}
		}
	}
}

func TestSinglePairOddCube(t *testing.T) {
	arena := grid.MustNew(3, 3)
	part, err := NewPartition(arena, 3)
	if err != nil {
		t.Fatal(err)
	}
	singles := 0
	for _, pr := range part.Pairs() {
		if pr.Single {
			singles++
		}
	}
	if singles != 1 {
		t.Errorf("odd 3x3 cube should leave exactly 1 single, got %d", singles)
	}
	if len(part.Pairs()) != 5 {
		t.Errorf("3x3 should have 5 pairs, got %d", len(part.Pairs()))
	}
}

// referencePartition builds a partition the way NewPartition did before it
// sized its tables up front: walkCubes and referenceSnakeOrder below are
// that walk, kept unchanged (bar the snake's name) as the oracle of
// TestPartitionMatchesReferenceWalk.
func referencePartition(arena *grid.Grid, cubeSide int) (*Partition, error) {
	p := &Partition{
		arena:    arena,
		cubeSide: cubeSide,
		pairIdx:  make([]int32, arena.Len()),
		cubeIdx:  make([]int32, arena.Len()),
		commIdx:  make([][]sim.NodeID, arena.Len()),
	}
	for i := range p.pairIdx {
		p.pairIdx[i] = -1
		p.cubeIdx[i] = -1
	}
	var corner [grid.MaxDim]int
	if err := p.walkCubes(corner, 0); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Partition) walkCubes(corner [grid.MaxDim]int, axis int) error {
	if axis < p.arena.Dim() {
		for c := 0; c < p.arena.Size(axis); c += p.cubeSide {
			corner[axis] = c
			if err := p.walkCubes(corner, axis+1); err != nil {
				return err
			}
		}
		return nil
	}
	dim := p.arena.Dim()
	var lo, hi grid.Point
	for i := 0; i < dim; i++ {
		lo[i] = int32(corner[i])
		h := corner[i] + p.cubeSide - 1
		if h >= p.arena.Size(i) {
			h = p.arena.Size(i) - 1
		}
		hi[i] = int32(h)
	}
	cube, err := grid.NewBox(dim, lo, hi)
	if err != nil {
		return err
	}
	cubeIdx := len(p.cubePairs)
	cells := referenceSnakeOrder(cube)
	var pairIdxs []int
	for i := 0; i < len(cells); i += 2 {
		pr := Pair{Cube: cubeIdx}
		if i+1 < len(cells) {
			// Put the black vertex first so ServicePos is the initially
			// active cell.
			a, b := cells[i], cells[i+1]
			if grid.ColorOf(a) != grid.Black {
				a, b = b, a
			}
			pr.Cells = [2]grid.Point{a, b}
		} else {
			pr.Cells[0] = cells[i]
			pr.Single = true
		}
		idx := len(p.pairs)
		p.pairs = append(p.pairs, pr)
		pairIdxs = append(pairIdxs, idx)
		p.pairIdx[p.arena.Index(pr.Cells[0])] = int32(idx)
		if !pr.Single {
			p.pairIdx[p.arena.Index(pr.Cells[1])] = int32(idx)
		}
	}
	p.cubePairs = append(p.cubePairs, pairIdxs)
	// Monitoring ring inverse: pair list[i] is watched by list[(i+1)%n], so
	// list[(i+1)%n] *watches* list[i]. Precomputing the inverse here turns
	// the watcher's per-check-round scan into one table read (a one-pair
	// cube watches itself, which the check path skips).
	p.watchIdx = append(p.watchIdx, make([]int32, len(pairIdxs))...)
	for i, pid := range pairIdxs {
		p.watchIdx[pairIdxs[(i+1)%len(pairIdxs)]] = int32(pid)
	}
	// Communication graph: same-cube cells within L1 distance 2, in snake
	// order (the order is part of the deterministic message schedule), as
	// node ids. Each runner's search engines flood these rows directly.
	for _, a := range cells {
		ai := p.arena.Index(a)
		p.cubeIdx[ai] = int32(cubeIdx)
		for _, b := range cells {
			if a != b && grid.Manhattan(a, b) <= 2 {
				p.commIdx[ai] = append(p.commIdx[ai], sim.NodeID(p.arena.Index(b)))
			}
		}
	}
	return nil
}

// referenceSnakeOrder enumerates the box's cells along a Hamiltonian lattice
// path: each digit of the mixed-radix counter reverses direction whenever
// the sum of the more significant digits is odd, so consecutive cells always
// differ by one step in exactly one axis.
func referenceSnakeOrder(b grid.Box) []grid.Point {
	dim := b.Dim
	sizes := make([]int, dim)
	total := 1
	for i := 0; i < dim; i++ {
		sizes[i] = int(b.Side(i))
		total *= sizes[i]
	}
	out := make([]grid.Point, 0, total)
	digits := make([]int, dim)
	for k := 0; k < total; k++ {
		rem := k
		hiSum := 0
		for i := 0; i < dim; i++ {
			// Axis i's block size = product of sizes of less significant
			// axes (i+1..dim-1).
			block := 1
			for j := i + 1; j < dim; j++ {
				block *= sizes[j]
			}
			d := rem / block
			rem %= block
			if hiSum%2 == 1 {
				d = sizes[i] - 1 - d // reversed sweep
			}
			digits[i] = d
			hiSum += d
		}
		var pt grid.Point
		for i := 0; i < dim; i++ {
			pt[i] = b.Lo[i] + int32(digits[i])
		}
		out = append(out, pt)
	}
	return out
}

// checkMatchesReference builds NewPartition(arena, side) for each side and
// compares every table with the reference walk's. It also checks that each
// communication row and cube pair list is capped at its length, so an
// append to one can never write into the next, and that the up-front sizes
// are exact. A side at or past the arena's longest axis gives the same
// single-cube partition as that axis length, so the reference is built once
// for all of them.
func checkMatchesReference(t *testing.T, arena *grid.Grid, sides ...int) {
	t.Helper()
	longest := 0
	for i := 0; i < arena.Dim(); i++ {
		longest = max(longest, arena.Size(i))
	}
	refs := make(map[int]*Partition)
	for _, side := range sides {
		got, err := NewPartition(arena, side)
		if err != nil {
			t.Fatal(err)
		}
		want := refs[min(side, longest)]
		if want == nil {
			if want, err = referencePartition(arena, side); err != nil {
				t.Fatal(err)
			}
			refs[min(side, longest)] = want
		}
		name := fmt.Sprintf("arena %v, cube side %d", arena.Bounds().Hi, side)
		if !slices.Equal(got.pairs, want.pairs) {
			t.Fatalf("%s: pairs differ", name)
		}
		if !slices.Equal(got.pairIdx, want.pairIdx) || !slices.Equal(got.cubeIdx, want.cubeIdx) {
			t.Fatalf("%s: pairIdx or cubeIdx differs", name)
		}
		if !slices.Equal(got.watchIdx, want.watchIdx) {
			t.Fatalf("%s: watchIdx differs", name)
		}
		if len(got.cubePairs) != len(want.cubePairs) {
			t.Fatalf("%s: %d cubes, reference has %d", name, len(got.cubePairs), len(want.cubePairs))
		}
		for c, list := range got.cubePairs {
			if !slices.Equal(list, want.cubePairs[c]) || cap(list) != len(list) {
				t.Fatalf("%s: cube %d pairs %v (cap %d), reference %v",
					name, c, list, cap(list), want.cubePairs[c])
			}
		}
		links := 0
		for i, row := range got.commIdx {
			if !slices.Equal(row, want.commIdx[i]) || cap(row) != len(row) {
				t.Fatalf("%s: comm row %d is %v (cap %d), reference %v",
					name, i, row, cap(row), want.commIdx[i])
			}
			links += len(row)
		}
		cubes, pairs, sized, _ := got.tableSizes()
		if cubes != len(want.cubePairs) || pairs != len(want.pairs) || sized != links ||
			cap(got.pairs) != len(got.pairs) {
			t.Fatalf("%s: sized %d cubes, %d pairs, %d links; built %d, %d (cap %d), %d",
				name, cubes, pairs, sized, len(want.cubePairs), len(want.pairs), cap(got.pairs), links)
		}
	}
}

// TestPartitionMatchesReferenceWalk pins the up-front-sized NewPartition to
// the walk it replaced, table by table, on 500 random 1-4-D arenas (sides
// 1-9) at cube sides 1-10, and on cube sides far past the arena. Row order,
// pair order and black-first pairing are part of the message schedule.
func TestPartitionMatchesReferenceWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for range 500 {
		sizes := make([]int, 1+rng.Intn(grid.MaxDim))
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(9)
		}
		t.Run(fmt.Sprint(sizes), func(t *testing.T) {
			t.Parallel()
			checkMatchesReference(t, grid.MustNew(sizes...), 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
		})
	}
	for _, sizes := range [][]int{{7}, {5, 6}, {3, 4, 2}} {
		checkMatchesReference(t, grid.MustNew(sizes...), math.MaxInt32+1, math.MaxInt)
	}
}

// TestNewPartitionAllocsFlat pins that building a partition takes the same
// number of allocations on any arena: every table is sized up front, rows
// and pair lists are sub-slices of shared backing arrays, and the snake walk
// reuses one buffer.
func TestNewPartitionAllocsFlat(t *testing.T) {
	const ceiling = 16
	// The first collection in a process starts the runtime's mark worker
	// goroutines, whose allocations would otherwise land in a count.
	runtime.GC()
	for side := 1; side <= 4; side++ {
		var counts []float64
		for _, n := range []int{8, 16, 32} {
			arena := grid.MustNew(n, n)
			counts = append(counts, testing.AllocsPerRun(10, func() {
				if _, err := NewPartition(arena, side); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if counts[0] != counts[1] || counts[1] != counts[2] || counts[2] > ceiling {
			t.Errorf("cube side %d: NewPartition allocated %v objects at 8x8, 16x16, 32x32; want equal and at most %d",
				side, counts, ceiling)
		}
	}
}
