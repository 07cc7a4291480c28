package online

import (
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
		path := snakeOrder(b)
		if int64(len(path)) != b.Volume() {
			t.Fatalf("%v: path covers %d of %d cells", tc, len(path), b.Volume())
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
