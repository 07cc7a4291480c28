package sim

import (
	"errors"
	"testing"
)

// TestResetIdenticalToFresh pins the reuse contract: a reset network runs
// bit-for-bit identically to a freshly built one with the same seed.
func TestResetIdenticalToFresh(t *testing.T) {
	build := func() (*Network, []*chainProc) {
		n := NewNetwork(3, 0)
		const hops = 50
		procs := make([]*chainProc, hops)
		for i := 0; i < hops; i++ {
			next := NodeID(i + 1)
			if i == hops-1 {
				next = None
			}
			procs[i] = &chainProc{next: next}
			if err := n.Add(NodeID(i), procs[i]); err != nil {
				t.Fatal(err)
			}
		}
		return n, procs
	}
	drive := func(n *Network) int64 {
		n.Inject(0, token(50))
		if err := n.Run(10_000); err != nil {
			t.Fatal(err)
		}
		return n.Delivered()
	}
	fresh, _ := build()
	want := drive(fresh)

	n, _ := build()
	if got := drive(n); got != want {
		t.Fatalf("first run delivered %d, want %d", got, want)
	}
	for i := 0; i < 3; i++ {
		n.Reset(3, false)
		if n.Delivered() != 0 || n.sent != 0 || n.Pending() != 0 {
			t.Fatalf("reset %d left counters: delivered=%d sent=%d pending=%d",
				i, n.Delivered(), n.sent, n.Pending())
		}
		if got := drive(n); got != want {
			t.Fatalf("reset run %d delivered %d, want %d", i, got, want)
		}
	}
}

// TestResetMidFlight drops pending messages: a network reset while messages
// are still queued comes back clean and reusable.
func TestResetMidFlight(t *testing.T) {
	n := NewNetwork(1, 0)
	sink := &silentProc{}
	if err := n.Add(0, sink); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		n.Inject(0, token(uint32(i)))
	}
	// Deliver only a few, leaving the rest in flight.
	for i := 0; i < 5; i++ {
		if _, err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if n.Pending() == 0 {
		t.Fatal("test needs pending messages before reset")
	}
	n.Reset(1, false)
	if n.Pending() != 0 || n.Delivered() != 0 || n.sent != 0 {
		t.Fatalf("reset left state: pending=%d delivered=%d sent=%d",
			n.Pending(), n.Delivered(), n.sent)
	}
	// The dropped messages must never arrive; new traffic flows normally.
	sink.got = nil
	n.Inject(0, text(777))
	if err := n.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(sink.got) != 1 || sink.got[0] != text(777) {
		t.Fatalf("post-reset delivery got %v", sink.got)
	}
}

// TestResetAfterStepLimit recovers from a livelocked run: the spinning
// traffic is discarded and the network serves fresh traffic again.
func TestResetAfterStepLimit(t *testing.T) {
	n := NewNetwork(5, 0)
	if err := n.Add(1, loopProc{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Add(2, &silentProc{}); err != nil {
		t.Fatal(err)
	}
	n.Inject(1, text(1))
	if err := n.Run(100); !errors.Is(err, ErrStepLimit) {
		t.Fatalf("want ErrStepLimit, got %v", err)
	}
	n.Reset(5, false)
	if n.Pending() != 0 {
		t.Fatalf("reset left %d pending messages", n.Pending())
	}
	n.Inject(2, text(2))
	if err := n.Run(100); err != nil {
		t.Fatalf("post-reset run: %v", err)
	}
	if n.Delivered() != 1 {
		t.Errorf("delivered %d, want 1", n.Delivered())
	}
}

// TestResetAfterBadSend clears the latched send error.
func TestResetAfterBadSend(t *testing.T) {
	n := NewNetwork(7, 0)
	if err := n.Add(0, &silentProc{}); err != nil {
		t.Fatal(err)
	}
	n.Inject(None, text(0))
	if _, err := n.Step(); err == nil {
		t.Fatal("bad send must surface on Step")
	}
	n.Reset(7, false)
	n.Inject(0, text(1))
	if err := n.Run(100); err != nil {
		t.Fatalf("post-reset run: %v", err)
	}
	if n.Delivered() != 1 {
		t.Errorf("delivered %d, want 1", n.Delivered())
	}
}

// TestResetReusesStorage locks the zero-alloc promise: after a first run has
// sized the link tables and ring buffers, reset + identical re-run performs
// no allocations in the sim layer.
func TestResetReusesStorage(t *testing.T) {
	const ring = 16
	n := NewNetwork(1, 0)
	for j := 0; j < ring; j++ {
		if err := n.Add(NodeID(j), relay{next: NodeID((j + 1) % ring)}); err != nil {
			t.Fatal(err)
		}
	}
	drive := func() {
		for j := 0; j < 4; j++ {
			n.Inject(NodeID(j*5%ring), token(100))
		}
		if err := n.Run(10_000); err != nil {
			t.Fatal(err)
		}
	}
	drive() // size all buffers
	allocs := testing.AllocsPerRun(10, func() {
		n.Reset(1, false)
		drive()
	})
	// Messages are inline values in retained ring buffers, so a warm episode
	// is allocation-free.
	if allocs > 0 {
		t.Errorf("warm reset+run allocated %.1f objects/run, want 0", allocs)
	}
}
