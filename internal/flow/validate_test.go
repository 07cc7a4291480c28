package flow

import (
	"fmt"
	"math"
	"testing"
)

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
