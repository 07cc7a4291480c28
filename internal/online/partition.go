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
	"math"

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
// The cubes are the arena's side-cubeSide tiles (grid.Grid.Tile), the cut
// Lemma 2.2.5's offline schedule makes too. Per-cell lookups are dense
// slices indexed by Arena.Index — the cell's arena index doubles as its
// vehicle's sim.NodeID, so the hot layers above never hash a point.
//
// A Partition is immutable after NewPartition returns and therefore safe to
// share: any number of runners of its arena and cube side, on any
// goroutines, can take it via Options.Partition, and a capacity search's
// probes all use one. Accessors returning internal slices document that
// callers must not mutate them — that is the whole sharing contract.
type Partition struct {
	arena    *grid.Grid
	cubeSide int

	pairs   []Pair
	pairIdx []int32 // arena index -> pair index
	// comm holds every cell's communication row (its same-cube cells
	// within distance 2, as node ids) back to back, cube by cube and within
	// a cube in snake order; rows[idx] locates the row of the cell with
	// arena index idx in it.
	comm []sim.NodeID
	rows []rowSpan
	// Pair ids are contiguous per cube: cube c holds pair ids cubeStart[c]
	// to cubeStart[c+1]-1, in snake order.
	cubeStart []int32
}

// rowSpan locates one communication row in Partition.comm: n entries from
// off, in 8 bytes where a slice header takes 24.
type rowSpan struct{ off, n int32 }

// NewPartition decomposes the arena into its side-s tiles, pairs each
// tile's cells along a boustrophedon (snake) walk — consecutive snake cells
// are lattice-adjacent, hence opposite chessboard colors — and precomputes
// the communication graph: vehicles within L1 distance 2 in the same cube
// are neighbors (Section 3.2's "constant distance... we use 2 here").
//
// Every table is sized before it is filled, so a build takes the same
// handful of allocations on any arena: the communication rows are spans of
// one backing array, and the snake walk reuses one buffer sized for the
// largest cube. A partition with 2^31 or more links in its communication
// graph, past what a span can address, is refused.
func NewPartition(arena *grid.Grid, cubeSide int) (*Partition, error) {
	if arena == nil {
		return nil, fmt.Errorf("online: partition needs an arena")
	}
	if cubeSide < 1 {
		return nil, fmt.Errorf("online: cube side %d must be >= 1", cubeSide)
	}
	p := &Partition{arena: arena, cubeSide: cubeSide}
	cubes, pairs, links, maxVol := p.tableSizes()
	if links > math.MaxInt32 {
		return nil, fmt.Errorf("online: %d communication links at cube side %d, past the %d a partition holds",
			links, cubeSide, math.MaxInt32)
	}
	p.pairs = make([]Pair, 0, pairs)
	p.pairIdx = make([]int32, arena.Len())
	p.comm = make([]sim.NodeID, 0, links)
	p.rows = make([]rowSpan, arena.Len())
	p.cubeStart = make([]int32, cubes+1)
	cells := make([]grid.Point, 0, maxVol) // one cube's snake walk
	for c := range cubes {
		cube, _ := arena.Tile(cubeSide, c)
		cells = snakeOrder(cells[:0], cube)
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
		p.cubeStart[c+1] = int32(len(p.pairs))
		// Communication graph: same-cube cells within L1 distance 2, in snake
		// order (the order is part of the deterministic message schedule), as
		// node ids. Each runner's vehicles hand these rows to their search
		// engines as they are, without a copy.
		for _, a := range cells {
			start := len(p.comm)
			for _, b := range cells {
				if a != b && grid.Manhattan(a, b) <= 2 {
					p.comm = append(p.comm, sim.NodeID(arena.Index(b)))
				}
			}
			p.rows[arena.Index(a)] = rowSpan{off: int32(start), n: int32(len(p.comm) - start)}
		}
	}
	return p, nil
}

// tableSizes returns the number of cubes, pairs and communication links of
// the partition and its largest cube volume, so NewPartition can size every
// table exactly before it fills them.
func (p *Partition) tableSizes() (cubes, pairs, links, maxVol int) {
	cubes = p.arena.Tiles(p.cubeSide)
	for c := range cubes {
		b, _ := p.arena.Tile(p.cubeSide, c)
		vol := int(b.Volume())
		pairs += (vol + 1) / 2
		links += commLinks(b)
		maxVol = max(maxVol, vol)
	}
	return cubes, pairs, links, maxVol
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

// commRow returns the communication row of the cell whose arena index (and
// node id) is id, capped at its length (shared; callers must not mutate
// it).
func (p *Partition) commRow(id sim.NodeID) []sim.NodeID {
	r := p.rows[id]
	return p.comm[r.off : r.off+r.n : r.off+r.n]
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

// cubeRange returns the first pair id of pair id's cube and the cube's
// number of pairs.
func (p *Partition) cubeRange(id int) (first, n int) {
	c := p.pairs[id].Cube
	first = int(p.cubeStart[c])
	return first, int(p.cubeStart[c+1]) - first
}

// WatcherPair returns the pair that monitors pair `id` in the Section 3.2.5
// monitoring ring: pairs of a cube watch each other cyclically, so every
// pair is watched by exactly one other pair (or itself in a one-pair cube).
// Cube pair ids are contiguous, so the ring successor is index arithmetic.
func (p *Partition) WatcherPair(id int) int {
	first, n := p.cubeRange(id)
	return first + (id-first+1)%n
}

// WatchedPair returns the pair that pair `watcher` monitors, the inverse of
// WatcherPair: the ring predecessor within the watcher's cube (itself in a
// one-pair cube).
func (p *Partition) WatchedPair(watcher int) int {
	first, n := p.cubeRange(watcher)
	return first + (watcher-first+n-1)%n
}
