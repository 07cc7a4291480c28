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
//
// Every table is sized before it is filled, so a build takes the same
// handful of allocations on any arena: the communication rows are capped
// sub-slices of one backing array, the cube pair lists of another, and the
// snake walk reuses one buffer sized for the largest cube.
func NewPartition(arena *grid.Grid, cubeSide int) (*Partition, error) {
	if arena == nil {
		return nil, fmt.Errorf("online: partition needs an arena")
	}
	if cubeSide < 1 {
		return nil, fmt.Errorf("online: cube side %d must be >= 1", cubeSide)
	}
	p := &Partition{arena: arena, cubeSide: cubeSide}
	cubes, pairs, links, maxVol := p.tableSizes()
	p.pairs = make([]Pair, 0, pairs)
	p.pairIdx = make([]int32, arena.Len())
	p.cubeIdx = make([]int32, arena.Len())
	p.cubePairs = make([][]int, cubes)
	p.commIdx = make([][]sim.NodeID, arena.Len())
	p.watchIdx = make([]int32, pairs)
	ids := make([]int, pairs)              // backing of every cubePairs list
	comm := make([]sim.NodeID, 0, links)   // backing of every commIdx row
	cells := make([]grid.Point, 0, maxVol) // one cube's snake walk
	for c := range p.cubePairs {
		cells = snakeOrder(cells[:0], p.cube(c))
		first := len(p.pairs)
		for i := 0; i < len(cells); i += 2 {
			pr := Pair{Cube: c}
			if i+1 < len(cells) {
				// Put the black vertex first so ServicePos is the initially
				// active cell.
				a, b := cells[i], cells[i+1]
				if grid.ColorOf(a) != grid.Black {
					a, b = b, a
				}
				pr.Cells = [2]grid.Point{a, b}
				p.pairIdx[arena.Index(b)] = int32(len(p.pairs))
			} else {
				pr.Cells[0] = cells[i]
				pr.Single = true
			}
			p.pairIdx[arena.Index(pr.Cells[0])] = int32(len(p.pairs))
			p.pairs = append(p.pairs, pr)
		}
		// Pair ids are contiguous per cube. Monitoring ring inverse: pair
		// list[i] is watched by list[(i+1)%n], so list[(i+1)%n] *watches*
		// list[i]. Precomputing the inverse here turns the watcher's
		// per-check-round scan into one table read (a one-pair cube watches
		// itself, which the check path skips).
		n := len(p.pairs) - first
		p.cubePairs[c] = ids[first : first+n : first+n]
		for i := range n {
			ids[first+i] = first + i
			p.watchIdx[first+(i+1)%n] = int32(first + i)
		}
		// Communication graph: same-cube cells within L1 distance 2, in snake
		// order (the order is part of the deterministic message schedule), as
		// node ids. Each runner's search engines flood these rows directly.
		for _, a := range cells {
			ai := arena.Index(a)
			p.cubeIdx[ai] = int32(c)
			start := len(comm)
			for _, b := range cells {
				if a != b && grid.Manhattan(a, b) <= 2 {
					comm = append(comm, sim.NodeID(arena.Index(b)))
				}
			}
			p.commIdx[ai] = comm[start:len(comm):len(comm)]
		}
	}
	return p, nil
}

// tableSizes returns the number of cubes, pairs and communication links of
// the partition and its largest cube volume, so NewPartition can size every
// table exactly before it fills them. (size-1)/side + 1 cubes per axis
// cannot overflow, and a side past the arena leaves one clipped cube.
func (p *Partition) tableSizes() (cubes, pairs, links, maxVol int) {
	cubes = 1
	for i := 0; i < p.arena.Dim(); i++ {
		cubes *= (p.arena.Size(i)-1)/p.cubeSide + 1
	}
	for c := range cubes {
		b := p.cube(c)
		vol := int(b.Volume())
		pairs += (vol + 1) / 2
		links += commLinks(b)
		maxVol = max(maxVol, vol)
	}
	return cubes, pairs, links, maxVol
}

// cube returns cube c of the decomposition, clipped at the arena boundary.
// Cubes are numbered with axis 0 as the most significant digit: the order of
// nested per-axis loops with axis 0 outermost.
func (p *Partition) cube(c int) grid.Box {
	b := grid.Box{Dim: p.arena.Dim()}
	for i := b.Dim - 1; i >= 0; i-- {
		size := p.arena.Size(i)
		per := (size-1)/p.cubeSide + 1
		lo := c % per * p.cubeSide
		c /= per
		b.Lo[i] = int32(lo)
		b.Hi[i] = int32(lo + min(p.cubeSide, size-lo) - 1)
	}
	return b
}

// commLinks counts the ordered pairs of distinct cells of b within L1
// distance 2 of each other — one or two steps along one axis, or one step
// along each of two axes — which is the total length of b's communication
// rows.
func commLinks(b grid.Box) int {
	vol := int(b.Volume())
	links := 0
	for i := 0; i < b.Dim; i++ {
		si := int(b.Side(i))
		links += vol / si * 2 * (si - 1 + max(si-2, 0))
		for j := i + 1; j < b.Dim; j++ {
			sj := int(b.Side(j))
			links += vol / si / sj * 4 * (si - 1) * (sj - 1)
		}
	}
	return links
}

// snakeOrder appends the box's cells to dst along a Hamiltonian lattice path
// and returns the extended slice: each digit of the mixed-radix counter
// reverses direction whenever the sum of the more significant digits is odd,
// so consecutive cells always differ by one step in exactly one axis. A dst
// with room for the box's volume is filled without allocating.
func snakeOrder(dst []grid.Point, b grid.Box) []grid.Point {
	// block[i] is axis i's block size: the product of the sizes of the less
	// significant axes i+1..dim-1.
	var sizes, block [grid.MaxDim]int
	total := 1
	for i := b.Dim - 1; i >= 0; i-- {
		sizes[i] = int(b.Side(i))
		block[i] = total
		total *= sizes[i]
	}
	for k := range total {
		rem, hiSum := k, 0
		pt := b.Lo
		for i := 0; i < b.Dim; i++ {
			d := rem / block[i]
			rem %= block[i]
			if hiSum%2 == 1 {
				d = sizes[i] - 1 - d // reversed sweep
			}
			hiSum += d
			pt[i] += int32(d)
		}
		dst = append(dst, pt)
	}
	return dst
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
// Cube pair ids are contiguous, so the ring successor is an index
// subtraction, not a scan of the cube's pair list.
func (p *Partition) WatcherPair(id int) int {
	list := p.cubePairs[p.pairs[id].Cube]
	first := list[0]
	return first + (id-first+1)%len(list)
}

// WatchedPair returns the pair that pair `watcher` monitors — the
// precomputed inverse of WatcherPair. Every pair watches exactly one other
// pair of its cube (itself in a one-pair cube), so the check round reads one
// table entry instead of scanning the cube's pair list.
func (p *Partition) WatchedPair(watcher int) int { return int(p.watchIdx[watcher]) }
