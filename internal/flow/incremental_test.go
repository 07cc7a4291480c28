package flow

import (
	"fmt"
	"math"
	"testing"
)

// TestAddNodesExtendsInPlace checks that appended nodes participate in new
// edges while old edges, ids, and flow survive.
func TestAddNodesExtendsInPlace(t *testing.T) {
	nw := mustNet(t, 3)
	id := addEdge(t, nw, 0, 1, 2)
	addEdge(t, nw, 1, 2, 2)
	if f, err := nw.MaxFlow(0, 2); err != nil || math.Abs(f-2) > Eps {
		t.Fatalf("initial flow %v, %v", f, err)
	}
	first, err := nw.AddNodes(2)
	if err != nil {
		t.Fatal(err)
	}
	if first != 3 || nw.n != 5 {
		t.Fatalf("AddNodes returned %d, n=%d", first, nw.n)
	}
	if nw.cap[id^1] != 2 {
		t.Errorf("flow lost across AddNodes: %v", nw.cap[id^1])
	}
	// A second disjoint route through the new nodes: 0 -> 3 -> 4 -> 2.
	addEdge(t, nw, 0, 3, 1.5)
	addEdge(t, nw, 3, 4, 1.5)
	addEdge(t, nw, 4, 2, 1.5)
	// MaxFlow continues from the retained flow, so it pushes only the
	// difference the new route adds.
	pushed, err := nw.MaxFlow(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pushed-1.5) > Eps {
		t.Errorf("resumed difference %v, want 1.5", pushed)
	}
	if err := nw.ValidateFlow(0, 2); err != nil {
		t.Error(err)
	}
	if _, err := nw.AddNodes(-1); err == nil {
		t.Error("negative count should fail")
	}
}

// TestValidateFlowCatchesViolations corrupts residual state by hand and
// checks the validator notices.
func TestValidateFlowCatchesViolations(t *testing.T) {
	nw := mustNet(t, 4)
	a := addEdge(t, nw, 0, 1, 2)
	b := addEdge(t, nw, 1, 2, 2)
	addEdge(t, nw, 2, 3, 2)
	if _, err := nw.MaxFlow(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := nw.ValidateFlow(0, 3); err != nil {
		t.Fatalf("valid flow rejected: %v", err)
	}
	if err := nw.ValidateFlow(0, 0); err == nil {
		t.Error("bad terminals should fail")
	}
	// Conservation violation: drain flow off edge a only, so node 1 forwards
	// more than it receives while every edge stays within capacity.
	nw.cap[a^1] -= 1
	if err := nw.ValidateFlow(0, 3); err == nil {
		t.Error("conservation violation not caught")
	}
	nw.cap[a^1] += 1
	// Capacity violation: push more through b than its capacity.
	nw.cap[b^1] += 1.5
	if err := nw.ValidateFlow(0, 3); err == nil {
		t.Error("capacity violation not caught")
	}
}

// ValidateFlow checks that the retained flow (the state MaxFlow leaves
// behind) is a valid s-t flow: every forward edge carries flow within
// [0, capacity] up to Eps, and net flow is conserved at every node other
// than s and t. A diagnostic for tests, not a hot call — it allocates one
// scratch slice per invocation.
func (nw *Network) ValidateFlow(s, t int) error {
	if s < 0 || s >= nw.n || t < 0 || t >= nw.n || s == t {
		return fmt.Errorf("flow: bad terminals s=%d t=%d", s, t)
	}
	net := make([]float64, nw.n)
	for id := 0; id < len(nw.cap); id += 2 {
		f := nw.cap[id^1] - nw.base[id^1] // base of the reverse slot is always 0
		u, v := int(nw.to[id^1]), int(nw.to[id])
		if f < -Eps {
			return fmt.Errorf("flow: edge %d (%d->%d) carries negative flow %v", id, u, v, f)
		}
		if f > nw.base[id]+Eps {
			return fmt.Errorf("flow: edge %d (%d->%d) flow %v exceeds capacity %v", id, u, v, f, nw.base[id])
		}
		net[u] -= f
		net[v] += f
	}
	for i := 0; i < nw.n; i++ {
		if i == s || i == t {
			continue
		}
		if math.Abs(net[i]) > 1e-6 {
			return fmt.Errorf("flow: conservation violated at node %d: net %v", i, net[i])
		}
	}
	return nil
}
