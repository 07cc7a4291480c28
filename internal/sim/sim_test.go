package sim

import (
	"errors"
	"testing"
)

// Test message kinds (the 32..127 range reserved for tests by the Msg doc).
const (
	kindPing uint8 = iota + 32 // request: echoProc answers with kindAck
	kindAck
	kindToken // A: remaining hop count
	kindText  // A: an arbitrary test marker value
)

func ping() Msg              { return Msg{Kind: kindPing} }
func token(k uint32) Msg     { return Msg{Kind: kindToken, A: k} }
func text(marker uint32) Msg { return Msg{Kind: kindText, A: marker} }

// echoProc replies kindAck to every kindPing and records deliveries.
type echoProc struct {
	got []Msg
}

func (e *echoProc) OnMessage(ctx *Context, from NodeID, msg Msg) {
	e.got = append(e.got, msg)
	if msg.Kind == kindPing && from != None {
		ctx.Send(from, Msg{Kind: kindAck})
	}
}

type silentProc struct{ got []Msg }

func (s *silentProc) OnMessage(_ *Context, _ NodeID, msg Msg) {
	s.got = append(s.got, msg)
}

func TestAddValidation(t *testing.T) {
	n := NewNetwork(1, 0)
	if err := n.Add(1, nil); err == nil {
		t.Error("nil process should fail")
	}
	if err := n.Add(1, &silentProc{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Add(1, &silentProc{}); err == nil {
		t.Error("duplicate id should fail")
	}
}

func TestInjectAndQuiesce(t *testing.T) {
	n := NewNetwork(1, 0)
	p := &silentProc{}
	if err := n.Add(7, p); err != nil {
		t.Fatal(err)
	}
	n.Inject(7, text(1))
	n.Inject(7, text(2))
	if err := n.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(p.got) != 2 || p.got[0] != text(1) || p.got[1] != text(2) {
		t.Fatalf("got %v", p.got)
	}
	if n.Delivered() != 2 || n.Pending() != 0 {
		t.Errorf("delivered=%d pending=%d", n.Delivered(), n.Pending())
	}
}

func TestPingAck(t *testing.T) {
	n := NewNetwork(2, 0)
	a, b := &echoProc{}, &echoProc{}
	if err := n.Add(1, a); err != nil {
		t.Fatal(err)
	}
	if err := n.Add(2, b); err != nil {
		t.Fatal(err)
	}
	n.Inject(1, text(0)) // a does nothing with a non-ping
	// An injected ping has from = None, so no ack is expected.
	n.Inject(2, ping())
	if err := n.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(b.got) != 1 {
		t.Fatalf("b got %v", b.got)
	}
	if len(a.got) != 1 {
		t.Fatalf("a got %v", a.got)
	}
}

// chainProc forwards a token down a chain until its count hits zero.
type chainProc struct {
	next NodeID
	seen int
}

func (c *chainProc) OnMessage(ctx *Context, _ NodeID, msg Msg) {
	if msg.Kind != kindToken {
		return
	}
	c.seen++
	if msg.A > 0 && c.next != None {
		ctx.Send(c.next, token(msg.A-1))
	}
}

func TestChainDeterminism(t *testing.T) {
	run := func(seed int64) int64 {
		n := NewNetwork(seed, 0)
		const hops = 50
		for i := 0; i < hops; i++ {
			next := NodeID(i + 1)
			if i == hops-1 {
				next = None
			}
			if err := n.Add(NodeID(i), &chainProc{next: next}); err != nil {
				t.Fatal(err)
			}
		}
		n.Inject(0, token(hops))
		if err := n.Run(10_000); err != nil {
			t.Fatal(err)
		}
		return n.Delivered()
	}
	if run(3) != run(3) {
		t.Error("same seed must give identical delivery counts")
	}
	if run(3) != 50 {
		t.Errorf("chain should deliver 50 messages, got %d", run(3))
	}
}

func TestPerLinkFIFO(t *testing.T) {
	// Two streams into one node over the same link must stay ordered even
	// when many other links churn.
	n := NewNetwork(99, 0)
	sink := &silentProc{}
	if err := n.Add(0, sink); err != nil {
		t.Fatal(err)
	}
	noise := &silentProc{}
	if err := n.Add(1, noise); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		n.Inject(0, token(uint32(i)))
		n.Inject(1, token(uint32(i)))
	}
	if err := n.Run(1000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if sink.got[i].A != uint32(i) {
			t.Fatalf("FIFO violated at %d: %v", i, sink.got[i])
		}
	}
}

// loopProc sends to itself forever — a livelock the step limit must catch.
type loopProc struct{}

func (loopProc) OnMessage(ctx *Context, _ NodeID, msg Msg) {
	ctx.Send(ctx.Self(), msg)
}

func TestStepLimit(t *testing.T) {
	n := NewNetwork(5, 0)
	if err := n.Add(1, loopProc{}); err != nil {
		t.Fatal(err)
	}
	n.Inject(1, text(7))
	err := n.Run(100)
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("want ErrStepLimit, got %v", err)
	}
}

func TestUnknownRecipient(t *testing.T) {
	n := NewNetwork(5, 0)
	n.Inject(42, text(1))
	if err := n.Run(10); err == nil {
		t.Error("message to unknown node should error")
	}
}

// TestInjectUnknownLatchesDeferredError is the regression test for the
// Inject/Step consistency fix: injecting to a node id with no registered
// process — unregistered or negative — must latch the same deferred-error
// state a bad in-protocol send does: nothing is enqueued, later valid
// injections still are, and the next Step (or Run) reports the error
// whether or not messages are pending, instead of silently enqueuing a
// message that only errors if the scheduler happens to draw it.
func TestInjectUnknownLatchesDeferredError(t *testing.T) {
	for _, bad := range []NodeID{3, -1} { // 3 was never Added
		n := NewNetwork(5, 0)
		if err := n.Add(0, &silentProc{}); err != nil {
			t.Fatal(err)
		}
		n.Inject(bad, text(1))
		if n.sent != 0 {
			t.Errorf("id %d: inject enqueued: sent=%d, want 0", bad, n.sent)
		}
		if _, err := n.Step(); err == nil {
			t.Errorf("id %d: Step after the inject must surface the latched error", bad)
		}
		// Run must also report it rather than declaring quiescence, with a
		// valid injection pending behind the latch.
		n.Inject(0, text(2))
		if n.sent != 1 {
			t.Errorf("id %d: sent = %d after a valid inject, want 1", bad, n.sent)
		}
		if err := n.Run(100); err == nil {
			t.Errorf("id %d: Run after the inject must error, not quiesce", bad)
		}
		// Reset clears the latch and the network is usable again.
		n.Reset(5, false)
		n.Inject(0, text(3))
		if err := n.Run(100); err != nil {
			t.Fatalf("id %d: post-reset run: %v", bad, err)
		}
	}
}

func TestStepOnEmptyNetwork(t *testing.T) {
	n := NewNetwork(5, 0)
	progressed, err := n.Step()
	if err != nil || progressed {
		t.Errorf("empty step: %v %v", progressed, err)
	}
}
