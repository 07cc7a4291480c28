package sim

import (
	"errors"
	"testing"
)

// deliveryRecord is one observed delivery: destination, sender, message.
type deliveryRecord struct {
	to, from NodeID
	msg      Msg
}

// recordingRelay logs every delivery it receives, then relays tokens onward,
// so two networks' full delivery schedules can be compared event by event.
type recordingRelay struct {
	log  *[]deliveryRecord
	next NodeID
}

func (r recordingRelay) OnMessage(ctx *Context, from NodeID, msg Msg) {
	*r.log = append(*r.log, deliveryRecord{to: ctx.Self(), from: from, msg: msg})
	if msg.Kind == kindToken && msg.A > 0 {
		ctx.Send(r.next, token(msg.A-1))
	}
}

// buildRecordedRing makes a 16-node relay ring whose deliveries append to
// log, with mixed traffic: several concurrent token chains (multi-link ready
// lists, randomized picks) that die off at different times, leaving a single
// long chain at the end (a singleton ready list, where the pick is forced
// but still consumes a draw).
func buildRecordedRing(t *testing.T, log *[]deliveryRecord) *Network {
	t.Helper()
	const ring = 16
	n := NewNetwork(11)
	for j := 0; j < ring; j++ {
		if err := n.Add(NodeID(j), recordingRelay{log: log, next: NodeID((j + 1) % ring)}); err != nil {
			t.Fatal(err)
		}
	}
	for j, hops := range []uint32{5, 40, 12, 300} {
		n.Inject(NodeID(j*5%ring), token(hops))
	}
	return n
}

// TestRunMatchesStepByStep pins that Run is a Step loop: it consumes
// exactly the RNG draws and produces exactly the delivery schedule of
// stepping one message at a time, and its budget counts every delivery. The
// whole golden-trace suite rests on this equivalence.
func TestRunMatchesStepByStep(t *testing.T) {
	var runLog, stepLog []deliveryRecord
	nr := buildRecordedRing(t, &runLog)
	ns := buildRecordedRing(t, &stepLog)

	if err := nr.Run(10_000); err != nil {
		t.Fatal(err)
	}
	for {
		progressed, err := ns.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !progressed {
			break
		}
	}

	if len(runLog) != len(stepLog) {
		t.Fatalf("Run delivered %d messages, Step loop %d", len(runLog), len(stepLog))
	}
	for i := range runLog {
		if runLog[i] != stepLog[i] {
			t.Fatalf("schedules diverge at delivery %d: Run=%+v Step=%+v",
				i, runLog[i], stepLog[i])
		}
	}
	if nr.Delivered() != ns.Delivered() {
		t.Errorf("delivered %d (Run) vs %d (Step)", nr.Delivered(), ns.Delivered())
	}

	// The step budget counts every delivery of the call, forced picks
	// included: each capped Run stops after exactly that many more
	// deliveries, on the Step loop's schedule.
	var cappedLog []deliveryRecord
	nc := buildRecordedRing(t, &cappedLog)
	const budget = 37
	for call := 1; call <= 2; call++ {
		if err := nc.Run(budget); !errors.Is(err, ErrStepLimit) {
			t.Fatalf("call %d: want ErrStepLimit, got %v", call, err)
		}
		if len(cappedLog) != call*budget {
			t.Fatalf("call %d: budget %d but %d deliveries happened in total", call, budget, len(cappedLog))
		}
	}
	for i := range cappedLog {
		if cappedLog[i] != stepLog[i] {
			t.Fatalf("capped schedule diverges at delivery %d", i)
		}
	}
}

// TestWarmDeliveryAllocationFree is the CI alloc guard for the sim layer:
// once buffers are sized, a warm reset + full episode (injection, forced
// and randomized picks) performs zero allocations — no boxing, no ring
// growth, no ready-list growth.
func TestWarmDeliveryAllocationFree(t *testing.T) {
	const ring = 32
	n := NewNetwork(9)
	for j := 0; j < ring; j++ {
		if err := n.Add(NodeID(j), relay{next: NodeID((j + 1) % ring)}); err != nil {
			t.Fatal(err)
		}
	}
	drive := func() {
		// Operand 1000 would have boxed under the interface{} scheme (only
		// ints < 256 are interned); inline messages make the point moot.
		for j := 0; j < 8; j++ {
			n.Inject(NodeID(j*7%ring), token(1000))
		}
		if err := n.Run(100_000); err != nil {
			t.Fatal(err)
		}
	}
	drive() // size buffers cold
	allocs := testing.AllocsPerRun(5, func() {
		n.Reset(9)
		drive()
	})
	if allocs != 0 {
		t.Errorf("warm delivery allocated %.1f objects/run, want 0", allocs)
	}
}

// FuzzLinkQueue drives the inline-slot ring buffer against a naive slice
// model through arbitrary push/pop/drain interleavings, checking FIFO
// contents, counts, and wrap/grow behavior.
func FuzzLinkQueue(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 0, 2, 2})
	f.Add([]byte{0, 0, 0, 0, 0, 3, 0, 0, 2, 0})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 0, 0, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q linkQueue
		var rings chunks[Msg]
		var model []Msg
		next := uint32(0)
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // push (biased so queues actually fill, grow, and wrap)
				m := Msg{Kind: kindToken, A: next, B: next * 3, C: ^next, D: 7}
				next++
				q.push(&rings, m)
				model = append(model, m)
			case 2: // pop one, as Step does
				if len(model) > 0 {
					got, want := q.pop(), model[0]
					model = model[1:]
					if got != want {
						t.Fatalf("pop = %+v, want %+v", got, want)
					}
				}
			case 3: // drain the whole queue
				for len(model) > 0 {
					got, want := q.pop(), model[0]
					model = model[1:]
					if got != want {
						t.Fatalf("drain pop = %+v, want %+v", got, want)
					}
				}
			}
			if int(q.count) != len(model) {
				t.Fatalf("count = %d, model has %d", q.count, len(model))
			}
			if len(q.buf) > 0 && len(q.buf)&(len(q.buf)-1) != 0 {
				t.Fatalf("buffer length %d is not a power of two", len(q.buf))
			}
		}
		for i := range model {
			if got := q.pop(); got != model[i] {
				t.Fatalf("final drain at %d: got %+v, want %+v", i, got, model[i])
			}
		}
		if q.count != 0 {
			t.Fatalf("count = %d after full drain", q.count)
		}
	})
}
