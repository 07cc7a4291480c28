package flow

import (
	"math"
	"math/rand"
	"testing"
)

// randomNetwork builds a random graph twice — once into a fresh network,
// once via build(nw) into a caller-provided one — so tests can compare warm
// and cold paths edge for edge.
func randomNetwork(t *testing.T, rng *rand.Rand) (*Network, []int, int, int) {
	t.Helper()
	n := 5 + rng.Intn(15)
	nw := mustNet(t, n)
	var ids []int
	for i := 0; i < n*3; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		ids = append(ids, addEdge(t, nw, u, v, rng.Float64()*10))
	}
	return nw, ids, 0, n - 1
}

// TestResetMatchesFresh pins reset ≡ fresh for the flow layer: solving,
// resetting, and solving again yields the same value and the same per-edge
// flows as the first (fresh) solve.
func TestResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 30; trial++ {
		nw, ids, s, tt := randomNetwork(t, rng)
		fresh, err := nw.MaxFlow(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		freshFlows := make([]float64, len(ids))
		for i, id := range ids {
			freshFlows[i] = nw.cap[id^1]
		}
		for rep := 0; rep < 3; rep++ {
			nw.Reset()
			warm, err := nw.MaxFlow(s, tt)
			if err != nil {
				t.Fatal(err)
			}
			if warm != fresh {
				t.Fatalf("trial %d rep %d: warm flow %v != fresh %v", trial, rep, warm, fresh)
			}
			for i, id := range ids {
				if nw.cap[id^1] != freshFlows[i] {
					t.Fatalf("trial %d rep %d: edge %d flow %v != fresh %v",
						trial, rep, id, nw.cap[id^1], freshFlows[i])
				}
			}
		}
	}
}

// TestWarmSolveAllocatesNothing pins the tentpole's zero-alloc contract: a
// reset-then-MaxFlow on a warm network performs no allocations.
func TestWarmSolveAllocatesNothing(t *testing.T) {
	nw := mustNet(t, 6)
	addEdge(t, nw, 0, 1, 3)
	addEdge(t, nw, 0, 2, 2)
	addEdge(t, nw, 1, 3, 1)
	addEdge(t, nw, 2, 3, 4)
	addEdge(t, nw, 1, 4, 2)
	addEdge(t, nw, 4, 5, 2)
	addEdge(t, nw, 3, 5, 5)
	if _, err := nw.MaxFlow(0, 5); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		nw.Reset()
		if _, err := nw.MaxFlow(0, 5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Reset+MaxFlow allocated %v times, want 0", allocs)
	}
}

func TestSetCapacity(t *testing.T) {
	nw := mustNet(t, 3)
	id := addEdge(t, nw, 0, 1, 1)
	addEdge(t, nw, 1, 2, 10)
	if f, err := nw.MaxFlow(0, 2); err != nil || math.Abs(f-1) > Eps {
		t.Fatalf("initial flow %v, %v", f, err)
	}
	// Rewriting the bottleneck survives Reset: the new value is the base.
	if err := nw.SetCapacity(id, 7); err != nil {
		t.Fatal(err)
	}
	nw.Reset()
	if f, err := nw.MaxFlow(0, 2); err != nil || math.Abs(f-7) > Eps {
		t.Fatalf("rewritten flow %v, %v, want 7", f, err)
	}
	nw.Reset()
	if f, err := nw.MaxFlow(0, 2); err != nil || math.Abs(f-7) > Eps {
		t.Fatalf("flow after second reset %v, %v, want 7", f, err)
	}
	// SetCapacity discards flow on the pair even without a full Reset.
	if err := nw.SetCapacity(id, 2); err != nil {
		t.Fatal(err)
	}
	if f := nw.cap[id^1]; f != 0 {
		t.Errorf("flow on rewritten edge = %v, want 0", f)
	}
}

func TestSetCapacityValidation(t *testing.T) {
	nw := mustNet(t, 3)
	id := addEdge(t, nw, 0, 1, 1)
	if err := nw.SetCapacity(id+1, 2); err == nil {
		t.Error("reverse edge id should fail")
	}
	if err := nw.SetCapacity(99, 2); err == nil {
		t.Error("out-of-range id should fail")
	}
	if err := nw.SetCapacity(id, -1); err == nil {
		t.Error("negative capacity should fail")
	}
	if err := nw.SetCapacity(id, math.NaN()); err == nil {
		t.Error("NaN capacity should fail")
	}
}

// TestReinitMatchesFresh pins that rebuilding into a reused network is
// indistinguishable from a fresh one, across changing node counts.
func TestReinitMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	warm := &Network{}
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(15)
		type edge struct {
			u, v int
			c    float64
		}
		var edges []edge
		for i := 0; i < n*3; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			edges = append(edges, edge{u, v, rng.Float64() * 10})
		}
		fresh := mustNet(t, n)
		if err := warm.Reinit(n); err != nil {
			t.Fatal(err)
		}
		for _, e := range edges {
			idF := addEdge(t, fresh, e.u, e.v, e.c)
			idW, err := warm.AddEdge(e.u, e.v, e.c)
			if err != nil {
				t.Fatal(err)
			}
			if idF != idW {
				t.Fatalf("edge ids diverge: fresh %d warm %d", idF, idW)
			}
		}
		vF, err := fresh.MaxFlow(0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		vW, err := warm.MaxFlow(0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		if vF != vW {
			t.Fatalf("trial %d: reinit flow %v != fresh %v", trial, vW, vF)
		}
	}
	if err := warm.Reinit(1); err == nil {
		t.Error("Reinit(1) should fail")
	}
}
