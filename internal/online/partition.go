// Package online implements the decentralized on-line strategy of thesis
// Chapter 3: the arena is partitioned into cubes, vertices are paired into
// adjacent black/white pairs (Section 3.2), each pair is served by one
// active vehicle, and exhausted vehicles are replaced by idle ones located
// through Dijkstra-Scholten diffusing computations (Algorithm 2) followed by
// a Phase II move order. The package also implements the Section 3.2.5
// monitoring-ring extension that survives vehicles failing to initiate
// replacement searches and vehicles breaking down outright.
package online

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/sim"
)

// Pair is one black/white vertex pair of Section 3.2. A pair with Single set
// has only Cells[0] (the odd cell left over by an odd-volume cube).
type Pair struct {
	Cells  [2]grid.Point
	Single bool
	Cube   int
}

// ServicePos returns the canonical service location of the pair (where a
// replacement vehicle is sent). Cells[0] is the black vertex when possible.
func (p Pair) ServicePos() grid.Point { return p.Cells[0] }

// Partition is the static geometry of the online strategy: the cube
// decomposition, the pairing, and the intra-cube communication graph.
// Per-cell lookups are dense slices indexed by Arena.Index — the cell's
// arena index doubles as its vehicle's sim.NodeID, so the hot layers above
// never hash a point.
//
// A Partition is immutable after NewPartition returns and therefore safe to
// share: a capacity search builds one and hands it to every probe runner
// (including concurrent workers) via Options.Partition. Accessors returning
// internal slices document that callers must not mutate them — that is the
// whole sharing contract.
type Partition struct {
	arena    *grid.Grid
	cubeSide int

	pairs   []Pair
	pairIdx []int32 // arena index -> pair index
	cubeIdx []int32 // arena index -> cube index

	cubePairs [][]int        // cube -> pair indices (snake order)
	commIdx   [][]sim.NodeID // arena index -> same-cube cells within distance 2
	watchIdx  []int32        // pair -> the pair it watches (inverse of WatcherPair)
}

// NewPartition decomposes the arena into aligned side-s cubes (clipped at
// the boundary), pairs each cube's cells along a boustrophedon (snake) walk
// — consecutive snake cells are lattice-adjacent, hence opposite chessboard
// colors — and precomputes the communication graph: vehicles within L1
// distance 2 in the same cube are neighbors (Section 3.2's "constant
// distance... we use 2 here").
func NewPartition(arena *grid.Grid, cubeSide int) (*Partition, error) {
	if arena == nil {
		return nil, fmt.Errorf("online: partition needs an arena")
	}
	if cubeSide < 1 {
		return nil, fmt.Errorf("online: cube side %d must be >= 1", cubeSide)
	}
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
	cells := snakeOrder(cube)
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

// snakeOrder enumerates the box's cells along a Hamiltonian lattice path:
// each digit of the mixed-radix counter reverses direction whenever the sum
// of the more significant digits is odd, so consecutive cells always differ
// by one step in exactly one axis.
func snakeOrder(b grid.Box) []grid.Point {
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

// Pairs returns the pair table (shared slice; callers must not mutate).
func (p *Partition) Pairs() []Pair { return p.pairs }

// PairOf returns the pair index covering cell x.
func (p *Partition) PairOf(x grid.Point) (int, bool) {
	if !p.arena.Contains(x) {
		return 0, false
	}
	i := p.pairIdx[p.arena.Index(x)]
	return int(i), i >= 0
}

// PairAt returns the pair index covering the cell with the given arena
// index — the dense fast path of PairOf for callers already holding the
// index (which is also the cell's sim.NodeID).
func (p *Partition) PairAt(idx int64) int { return int(p.pairIdx[idx]) }

// CubePairs returns the pair indices of one cube in snake order.
func (p *Partition) CubePairs(cube int) []int { return p.cubePairs[cube] }

// WatcherPair returns the pair that monitors pair `id` in the Section 3.2.5
// monitoring ring: pairs of a cube watch each other cyclically, so every
// pair is watched by exactly one other pair (or itself in a one-pair cube).
func (p *Partition) WatcherPair(id int) int {
	cube := p.pairs[id].Cube
	list := p.cubePairs[cube]
	for i, pid := range list {
		if pid == id {
			return list[(i+1)%len(list)]
		}
	}
	return id // unreachable for a consistent partition
}

// WatchedPair returns the pair that pair `watcher` monitors — the
// precomputed inverse of WatcherPair. Every pair watches exactly one other
// pair of its cube (itself in a one-pair cube), so the check round reads one
// table entry instead of scanning the cube's pair list.
func (p *Partition) WatchedPair(watcher int) int { return int(p.watchIdx[watcher]) }
