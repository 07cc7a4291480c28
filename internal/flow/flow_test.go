package flow

import (
	"math"
	"math/rand"
	"testing"
)

func mustNet(t *testing.T, n int) *Network {
	t.Helper()
	nw, err := NewNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func addEdge(t *testing.T, nw *Network, u, v int, c float64) int {
	t.Helper()
	id, err := nw.AddEdge(u, v, c)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(1); err == nil {
		t.Error("1 node should fail")
	}
}

func TestAddEdgeValidation(t *testing.T) {
	nw := mustNet(t, 3)
	if _, err := nw.AddEdge(-1, 2, 1); err == nil {
		t.Error("negative node should fail")
	}
	if _, err := nw.AddEdge(0, 3, 1); err == nil {
		t.Error("out of range node should fail")
	}
	if _, err := nw.AddEdge(0, 1, -1); err == nil {
		t.Error("negative capacity should fail")
	}
	if _, err := nw.AddEdge(0, 1, math.NaN()); err == nil {
		t.Error("NaN capacity should fail")
	}
}

func TestMaxFlowValidation(t *testing.T) {
	nw := mustNet(t, 3)
	if _, err := nw.MaxFlow(0, 0); err == nil {
		t.Error("s == t should fail")
	}
	if _, err := nw.MaxFlow(0, 5); err == nil {
		t.Error("t out of range should fail")
	}
}

func TestSingleEdge(t *testing.T) {
	nw := mustNet(t, 2)
	id := addEdge(t, nw, 0, 1, 3.5)
	f, err := nw.MaxFlow(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-3.5) > Eps {
		t.Errorf("flow %v, want 3.5", f)
	}
	// An edge's flow is the residual capacity of its reverse slot.
	if math.Abs(nw.cap[id^1]-3.5) > Eps {
		t.Errorf("edge flow %v", nw.cap[id^1])
	}
}

func TestDisconnected(t *testing.T) {
	nw := mustNet(t, 4)
	addEdge(t, nw, 0, 1, 5)
	addEdge(t, nw, 2, 3, 5)
	f, err := nw.MaxFlow(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f != 0 {
		t.Errorf("disconnected flow %v", f)
	}
}

func TestClassicDiamond(t *testing.T) {
	// s=0, a=1, b=2, t=3. Max flow 2: bottlenecked on the s edges.
	nw := mustNet(t, 4)
	addEdge(t, nw, 0, 1, 1)
	addEdge(t, nw, 0, 2, 1)
	addEdge(t, nw, 1, 3, 2)
	addEdge(t, nw, 2, 3, 2)
	addEdge(t, nw, 1, 2, 10) // cross edge should not help
	f, err := nw.MaxFlow(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-2) > Eps {
		t.Errorf("diamond flow %v, want 2", f)
	}
}

func TestAugmentingPathRequired(t *testing.T) {
	// The classic example where a greedy path choice requires flow to be
	// rerouted through the residual graph.
	nw := mustNet(t, 4)
	addEdge(t, nw, 0, 1, 1)
	addEdge(t, nw, 0, 2, 1)
	addEdge(t, nw, 1, 2, 1)
	addEdge(t, nw, 1, 3, 1)
	addEdge(t, nw, 2, 3, 1)
	f, err := nw.MaxFlow(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-2) > Eps {
		t.Errorf("flow %v, want 2", f)
	}
}

func TestBipartiteMatching(t *testing.T) {
	// 3x3 bipartite: left i connects to right i and (i+1)%3; perfect
	// matching of size 3 as unit-capacity flow.
	nw := mustNet(t, 8) // 0 source, 1-3 left, 4-6 right, 7 sink
	for i := 1; i <= 3; i++ {
		addEdge(t, nw, 0, i, 1)
		addEdge(t, nw, i+3, 7, 1)
	}
	for i := 0; i < 3; i++ {
		addEdge(t, nw, 1+i, 4+i, 1)
		addEdge(t, nw, 1+i, 4+(i+1)%3, 1)
	}
	f, err := nw.MaxFlow(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-3) > Eps {
		t.Errorf("matching flow %v, want 3", f)
	}
}

// TestFlowConservationRandom checks conservation and capacity constraints on
// random graphs, and that the flow value equals net outflow of the source.
func TestFlowConservationRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(15)
		nw := mustNet(t, n)
		type edge struct {
			id   int
			u, v int
			c    float64
		}
		var edges []edge
		for i := 0; i < n*3; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			c := rng.Float64() * 10
			id := addEdge(t, nw, u, v, c)
			edges = append(edges, edge{id, u, v, c})
		}
		val, err := nw.MaxFlow(0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		net := make([]float64, n)
		for _, e := range edges {
			f := nw.cap[e.id^1]
			if f < -Eps || f > e.c+Eps {
				t.Fatalf("edge (%d,%d) flow %v out of [0,%v]", e.u, e.v, f, e.c)
			}
			net[e.u] -= f
			net[e.v] += f
		}
		for i := 1; i < n-1; i++ {
			if math.Abs(net[i]) > 1e-6 {
				t.Fatalf("conservation violated at %d: %v", i, net[i])
			}
		}
		if math.Abs(-net[0]-val) > 1e-6 || math.Abs(net[n-1]-val) > 1e-6 {
			t.Fatalf("source/sink imbalance: out=%v in=%v val=%v", -net[0], net[n-1], val)
		}
	}
}

// TestMaxFlowMinCutRandom cross-checks Dinic against a brute-force minimum
// cut on tiny graphs (max-flow min-cut theorem).
func TestMaxFlowMinCutRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(4) // brute force over 2^n cuts
		type edge struct {
			u, v int
			c    float64
		}
		var edges []edge
		for i := 0; i < n*2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			edges = append(edges, edge{u, v, float64(1 + rng.Intn(9))})
		}
		nw := mustNet(t, n)
		for _, e := range edges {
			addEdge(t, nw, e.u, e.v, e.c)
		}
		s, tt := 0, n-1
		val, err := nw.MaxFlow(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		minCut := math.Inf(1)
		for mask := 0; mask < 1<<n; mask++ {
			if mask&(1<<s) == 0 || mask&(1<<tt) != 0 {
				continue // s must be on the source side, t on the sink side
			}
			cut := 0.0
			for _, e := range edges {
				if mask&(1<<e.u) != 0 && mask&(1<<e.v) == 0 {
					cut += e.c
				}
			}
			if cut < minCut {
				minCut = cut
			}
		}
		if math.Abs(val-minCut) > 1e-6 {
			t.Fatalf("trial %d: maxflow %v != mincut %v (edges %v)", trial, val, minCut, edges)
		}
	}
}
