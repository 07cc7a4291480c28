package sim

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestReadyListExactUnderDrainRefill is the regression test for the ready-
// list maintenance bug class of the map-keyed simulator (stale entries after
// a queue drained under a different ready slot): a link that repeatedly
// drains and refills must occupy exactly one ready slot while nonempty and
// none while empty.
func TestReadyListExactUnderDrainRefill(t *testing.T) {
	n := NewNetwork(17)
	a, b := &silentProc{}, &silentProc{}
	if err := n.Add(0, a); err != nil {
		t.Fatal(err)
	}
	if err := n.Add(1, b); err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 10; cycle++ {
		// Refill two links, drain them fully, repeat. Each transition
		// empty->nonempty must add exactly one ready entry and each drain
		// must remove exactly that entry.
		for k := 0; k < 3; k++ {
			n.Inject(0, token(uint32(cycle*10+k)))
			n.Inject(1, token(uint32(cycle*10+k)))
		}
		if got := len(n.ready); got != 2 {
			t.Fatalf("cycle %d: ready has %d entries, want 2", cycle, got)
		}
		if err := n.Run(1000); err != nil {
			t.Fatal(err)
		}
		if got := len(n.ready); got != 0 {
			t.Fatalf("cycle %d: %d stale ready entries after drain", cycle, got)
		}
		if n.Pending() != 0 {
			t.Fatalf("cycle %d: pending %d after drain", cycle, n.Pending())
		}
	}
	if len(a.got) != 30 || len(b.got) != 30 {
		t.Fatalf("delivered %d/%d messages, want 30/30", len(a.got), len(b.got))
	}
}

// reEnqueuer sends one message back onto the very link being drained,
// exercising the drain-then-refill-within-OnMessage path (the queue empties,
// leaves the ready list, and re-enters it during the same Step).
type reEnqueuer struct{ budget int }

func (r *reEnqueuer) OnMessage(ctx *Context, from NodeID, msg Msg) {
	if r.budget > 0 {
		r.budget--
		ctx.Send(ctx.Self(), text(0))
	}
}

func TestDrainRefillWithinStep(t *testing.T) {
	n := NewNetwork(3)
	p := &reEnqueuer{budget: 25}
	if err := n.Add(0, p); err != nil {
		t.Fatal(err)
	}
	n.Inject(0, text(0))
	if err := n.Run(1000); err != nil {
		t.Fatal(err)
	}
	if n.Delivered() != 26 {
		t.Fatalf("delivered %d, want 26", n.Delivered())
	}
	if len(n.ready) != 0 || n.Pending() != 0 {
		t.Fatalf("ready=%d pending=%d after quiescence", len(n.ready), n.Pending())
	}
}

// badSender fires one message to an invalid (negative) node id.
type badSender struct{}

func (badSender) OnMessage(ctx *Context, _ NodeID, _ Msg) {
	ctx.Send(-5, text(0))
}

// TestBadSendSurfacesAtStepBudget checks that a send to an invalid node id
// can never be silently dropped: even when the step budget is exhausted
// with an empty ready list, Run must report the bad send instead of
// declaring quiescence.
func TestBadSendSurfacesAtStepBudget(t *testing.T) {
	n := NewNetwork(1)
	if err := n.Add(0, badSender{}); err != nil {
		t.Fatal(err)
	}
	n.Inject(0, text(0))
	// Budget of exactly 1: the only delivery triggers the bad send and
	// drains the ready list in the same step.
	if err := n.Run(1); err == nil {
		t.Fatal("exhausted budget with a dropped send must error, not quiesce")
	}
	// And with budget to spare the next Step reports it too.
	n2 := NewNetwork(1)
	if err := n2.Add(0, badSender{}); err != nil {
		t.Fatal(err)
	}
	n2.Inject(0, text(0))
	if err := n2.Run(100); err == nil {
		t.Fatal("bad send must surface on the following step")
	}
}

// TestRingBufferWrap pushes enough traffic through one link to force the
// ring buffer to wrap and grow several times while preserving FIFO order.
func TestRingBufferWrap(t *testing.T) {
	n := NewNetwork(8)
	sink := &silentProc{}
	if err := n.Add(0, sink); err != nil {
		t.Fatal(err)
	}
	next := uint32(0)
	for round := 0; round < 5; round++ {
		// Uneven push/drain phases force head to wander through the buffer.
		for k := 0; k < 3+round*5; k++ {
			n.Inject(0, token(next))
			next++
		}
		for k := 0; k < 2; k++ {
			if _, err := n.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := n.Run(10_000); err != nil {
		t.Fatal(err)
	}
	for i, got := range sink.got {
		if got.A != uint32(i) {
			t.Fatalf("FIFO violated at %d: got %v", i, got)
		}
	}
	if len(sink.got) != int(next) {
		t.Fatalf("delivered %d of %d", len(sink.got), next)
	}
}

// TestLinkQueueIsOneCacheLine pins the link entry at one 64-byte cache line:
// the ready list dereferences exactly one scattered entry per delivery, and
// first-contact storage must not grow it.
func TestLinkQueueIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(linkQueue{}); got != 64 {
		t.Errorf("linkQueue is %d bytes, want 64", got)
	}
}

// burster answers a kick (any kindPing) with a burst of three tokens to each
// of its torus neighbours and swallows everything else.
type burster struct{ nbrs [4]NodeID }

func (b *burster) OnMessage(ctx *Context, _ NodeID, msg Msg) {
	if msg.Kind != kindPing {
		return
	}
	for _, to := range b.nbrs {
		for k := range 3 {
			ctx.Send(to, token(uint32(k)))
		}
	}
}

// firstContactAllocs builds side x side torus networks of bursters with
// every node registered, then counts the allocations of their first
// contacts only: each node in turn is kicked and run to quiescence, so every
// link, slot-table entry and ring buffer is created here, while the ready
// and round lists never hold more than one node's burst.
func firstContactAllocs(t *testing.T, side int, sealed bool) float64 {
	t.Helper()
	const runs = 3
	nets := make([]*Network, 0, runs+1)
	for range runs + 1 {
		n := NewNetwork(5)
		for y := range side {
			for x := range side {
				b := &burster{nbrs: [4]NodeID{
					NodeID(y*side + (x+1)%side), NodeID(y*side + (x+side-1)%side),
					NodeID((y+1)%side*side + x), NodeID((y+side-1)%side*side + x),
				}}
				if err := n.Add(NodeID(y*side+x), b); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := n.SetSealed(sealed); err != nil {
			t.Fatal(err)
		}
		nets = append(nets, n)
	}
	// The first collection in a process starts the runtime's mark worker
	// goroutines, whose allocations would otherwise land in the count.
	runtime.GC()
	return testing.AllocsPerRun(runs, func() {
		n := nets[0]
		nets = nets[1:]
		for id := range side * side {
			n.Inject(NodeID(id), ping())
			if err := n.Run(1000); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestFirstContactAllocsFlat pins that first contacts take a number of
// allocations that does not grow with the network, under both schedulers:
// links, slot tables and ring buffers are carved from chunks sized from the
// registered node count. Allocating them one by one cost eight or nine
// allocations per node (8,221 legacy and 9,249 sealed on 1024 nodes).
func TestFirstContactAllocsFlat(t *testing.T) {
	const ceiling = 32
	for _, sealed := range []bool{false, true} {
		small, large := firstContactAllocs(t, 8, sealed), firstContactAllocs(t, 32, sealed)
		if small != large || large > ceiling {
			t.Errorf("sealed %v: first contacts allocated %.0f objects on 64 nodes and %.0f on 1024; want equal and at most %d",
				sealed, small, large, ceiling)
		}
	}
}
