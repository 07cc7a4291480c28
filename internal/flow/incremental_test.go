package flow

import (
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
	if first != 3 || nw.N() != 5 {
		t.Fatalf("AddNodes returned %d, n=%d", first, nw.N())
	}
	if nw.Flow(id) != 2 {
		t.Errorf("flow lost across AddNodes: %v", nw.Flow(id))
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
