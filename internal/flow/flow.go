// Package flow implements Dinic's maximum-flow algorithm over float64
// capacities. CMVRP uses it as the feasibility oracle for the thesis' linear
// program (2.1): for a candidate capacity omega, supplies omega at every
// vehicle, demands d(j) at every customer, and arcs i->j for positions
// within the allowed radius — the LP is feasible iff max-flow saturates the
// total demand.
//
// A Network is warm-reusable: it stores the base capacity of every edge, so
// Reset restores the just-built state without allocating, SetCapacity
// rewrites a single edge (the knob capacity searches turn), and the BFS/DFS
// scratch is retained per network — a warm MaxFlow allocates nothing. This
// extends the repo's "reset ≡ fresh" discipline (DESIGN.md) to the offline
// LP core.
//
// MinCutReachable exposes the minimum cut each solve leaves behind, which
// lpchar reads as its next witness: the demands a short max-flow leaves
// unreachable are the next subset T of Lemma 2.2.2's maximization.
package flow

import (
	"fmt"
	"math"
)

// Eps is the tolerance under which residual capacities are treated as zero.
const Eps = 1e-9

// Network is a directed flow network. Nodes are dense integer ids 0..n-1.
// It retains its structure, base capacities, and traversal scratch across
// solves: Reset + MaxFlow replays bit-for-bit like a fresh build and
// allocates nothing.
type Network struct {
	n     int
	heads []int32 // adjacency list heads, -1 terminated
	to    []int32
	next  []int32
	cap   []float64 // residual capacities (mutated by MaxFlow)
	base  []float64 // construction-time capacities (restored by Reset)
	// Retained traversal scratch, sized to n at construction so a warm
	// MaxFlow performs zero allocations.
	level []int32
	iter  []int32
	queue []int32
	path  []int32 // augmenting-path edge stack (len <= n)
}

// NewNetwork creates a network with n nodes and no edges.
func NewNetwork(n int) (*Network, error) {
	nw := &Network{}
	if err := nw.Reinit(n); err != nil {
		return nil, err
	}
	return nw, nil
}

// Reinit restores the network to a freshly constructed n-node, zero-edge
// state while retaining the underlying storage, so rebuilding a solver over
// a same-order-of-magnitude graph reuses the old arrays instead of
// reallocating them. A fresh build and a Reinit-then-rebuild are
// indistinguishable (pinned by TestReinitMatchesFresh).
func (nw *Network) Reinit(n int) error {
	if n < 2 {
		return fmt.Errorf("flow: need at least 2 nodes, got %d", n)
	}
	nw.n = n
	nw.heads = resize(nw.heads, n)
	for i := range nw.heads {
		nw.heads[i] = -1
	}
	nw.to = nw.to[:0]
	nw.next = nw.next[:0]
	nw.cap = nw.cap[:0]
	nw.base = nw.base[:0]
	nw.level = resize(nw.level, n)
	nw.iter = resize(nw.iter, n)
	if cap(nw.queue) < n {
		nw.queue = make([]int32, 0, n)
	}
	if cap(nw.path) < n {
		nw.path = make([]int32, 0, n)
	}
	return nil
}

// resize returns s with length n, reusing its storage when possible.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// AddEdge adds a directed edge u->v with the given capacity (and an implicit
// residual reverse edge of capacity 0). Returns the edge id, usable with
// SetCapacity.
func (nw *Network) AddEdge(u, v int, capacity float64) (int, error) {
	if u < 0 || u >= nw.n || v < 0 || v >= nw.n {
		return 0, fmt.Errorf("flow: edge (%d,%d) out of range [0,%d)", u, v, nw.n)
	}
	if capacity < 0 || math.IsNaN(capacity) {
		return 0, fmt.Errorf("flow: invalid capacity %v", capacity)
	}
	id := len(nw.to)
	nw.to = append(nw.to, int32(v), int32(u))
	nw.cap = append(nw.cap, capacity, 0)
	nw.base = append(nw.base, capacity, 0)
	nw.next = append(nw.next, nw.heads[u], nw.heads[v])
	nw.heads[u] = int32(id)
	nw.heads[v] = int32(id + 1)
	return id, nil
}

// Reset restores every edge to its base capacity, discarding all flow. The
// structure is untouched and nothing is allocated: Reset followed by MaxFlow
// behaves exactly like a fresh network (TestResetMatchesFresh pins this).
func (nw *Network) Reset() {
	copy(nw.cap, nw.base)
}

// SetCapacity rewrites the capacity of edge id (a forward id returned by
// AddEdge), updating both the live residual state and the base restored by
// Reset. Any flow currently on the edge pair is discarded, so the usual
// probe sequence is Reset, then SetCapacity on the searched edges, then
// MaxFlow.
func (nw *Network) SetCapacity(id int, capacity float64) error {
	if id < 0 || id >= len(nw.cap) || id&1 != 0 {
		return fmt.Errorf("flow: edge id %d out of range (forward ids are even, < %d)", id, len(nw.cap))
	}
	if capacity < 0 || math.IsNaN(capacity) {
		return fmt.Errorf("flow: invalid capacity %v", capacity)
	}
	nw.cap[id] = capacity
	nw.cap[id^1] = 0
	nw.base[id] = capacity
	nw.base[id^1] = 0
	return nil
}

// MinCutReachable reports whether node v lies on the source side of the
// minimum cut the last MaxFlow call left behind: v was reachable from s in
// the final residual BFS (the phase that failed to reach t). That side is
// the same for every maximum flow, and the capacities leaving it sum to the
// max flow; lpchar reads the unreachable demands as the next witness of its
// Newton steps. Valid until the next MaxFlow; meaningless before the first.
func (nw *Network) MinCutReachable(v int) bool {
	return v >= 0 && v < nw.n && nw.level[v] >= 0
}

// MaxFlow computes the maximum s-t flow with Dinic's algorithm and returns
// its value. The network retains the flow; calling MaxFlow again continues
// from the current residual state — call Reset first to solve from scratch.
// A warm call performs zero allocations.
func (nw *Network) MaxFlow(s, t int) (float64, error) {
	if s < 0 || s >= nw.n || t < 0 || t >= nw.n || s == t {
		return 0, fmt.Errorf("flow: bad terminals s=%d t=%d", s, t)
	}
	level, iter := nw.level, nw.iter
	caps, to, next, heads := nw.cap, nw.to, nw.next, nw.heads
	total := 0.0
	for {
		// BFS level graph.
		for i := range level {
			level[i] = -1
		}
		level[s] = 0
		queue := append(nw.queue[:0], int32(s))
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			lv := level[u] + 1
			for e := heads[u]; e != -1; e = next[e] {
				v := to[e]
				if caps[e] > Eps && level[v] < 0 {
					level[v] = lv
					queue = append(queue, v)
				}
			}
		}
		nw.queue = queue[:0]
		if level[t] < 0 {
			return total, nil
		}
		copy(iter, heads)
		// Blocking flow via iterative DFS.
		for {
			pushed := nw.augment(s, t, level, iter)
			if pushed <= Eps {
				break
			}
			total += pushed
		}
	}
}

// augment finds one augmenting path in the level graph and pushes its
// bottleneck, returning the pushed amount (0 when s is exhausted for this
// phase). The path is an explicit edge stack rather than a call stack; every
// admissible edge on the stack has residual > Eps, so the bottleneck — the
// exact min over stacked residuals — is always > Eps once t is reached.
// Dead ends mark level[u] = -2 and advance the parent's iterator past the
// edge that led in, mirroring the advance-on-failure of the recursive form.
func (nw *Network) augment(s, t int, level, iter []int32) float64 {
	caps, to, next := nw.cap, nw.to, nw.next
	path := nw.path[:0]
	u, tt := int32(s), int32(t)
	for {
		if u == tt {
			d := math.Inf(1)
			for _, e := range path {
				if c := caps[e]; c < d {
					d = c
				}
			}
			for _, e := range path {
				caps[e] -= d
				caps[e^1] += d
			}
			nw.path = path[:0]
			return d
		}
		e := iter[u]
		lv := level[u] + 1
		for ; e != -1; e = next[e] {
			if caps[e] > Eps && level[to[e]] == lv {
				break
			}
		}
		iter[u] = e
		if e == -1 {
			level[u] = -2 // dead end on this phase
			if len(path) == 0 {
				nw.path = path
				return 0
			}
			pe := path[len(path)-1]
			path = path[:len(path)-1]
			pu := to[pe^1]
			iter[pu] = next[pe]
			u = pu
			continue
		}
		path = append(path, e)
		u = to[e]
	}
}
