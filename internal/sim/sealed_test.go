package sim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// The sealed-round scheduler's determinism contract is per-cell: every
// cell's delivery history (senders, messages, order) and the global counters
// are a pure function of (seed, topology, protocol), so the tests below
// compare per-cell logs.

// floodProc relays decaying token floods across a grid: each token forwards
// to one neighbor chosen by message content, and every third hop forks a
// second, shorter token — branching cross-cell traffic with multi-link
// ready sets that dies off deterministically.
type floodProc struct {
	id   NodeID
	nbrs []NodeID
	log  *[]deliveryRecord
}

func (p *floodProc) OnMessage(ctx *Context, from NodeID, msg Msg) {
	*p.log = append(*p.log, deliveryRecord{to: ctx.Self(), from: from, msg: msg})
	if msg.Kind != kindToken || msg.A == 0 {
		return
	}
	k := int(msg.A+uint32(p.id)) % len(p.nbrs)
	ctx.Send(p.nbrs[k], token(msg.A-1))
	if msg.A%3 == 0 {
		ctx.Send(p.nbrs[(k+1)%len(p.nbrs)], Msg{Kind: kindToken, A: msg.A / 2, B: msg.B + 1})
	}
}

// buildFloodGrid wires a w×h 4-neighbor torus of floodProcs whose
// per-node logs land in logs[id].
func buildFloodGrid(t testing.TB, w, h int, seed int64, logs [][]deliveryRecord) *Network {
	t.Helper()
	n := NewNetwork(seed)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			id := NodeID(y*w + x)
			nbrs := []NodeID{
				NodeID(y*w + (x+1)%w),
				NodeID(y*w + (x+w-1)%w),
				NodeID(((y+1)%h)*w + x),
				NodeID(((y+h-1)%h)*w + x),
			}
			if err := n.Add(id, &floodProc{id: id, nbrs: nbrs, log: &logs[id]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return n
}

// floodInject injects the standard flood workload: six tokens of
// increasing length spread over the grid's cells.
func floodInject(n *Network, cells int) {
	for j := 0; j < 6; j++ {
		n.Inject(NodeID((j*13)%cells), token(uint32(20+j*9)))
	}
}

// runFlood executes one sealed-round flood episode and returns the per-node
// logs plus counters.
func runFlood(t testing.TB, w, h int, seed int64) ([][]deliveryRecord, int64, int64) {
	t.Helper()
	logs := make([][]deliveryRecord, w*h)
	n := buildFloodGrid(t, w, h, seed, logs)
	if err := n.SetSealed(true); err != nil {
		t.Fatal(err)
	}
	floodInject(n, w*h)
	if err := n.Run(200_000); err != nil {
		t.Fatal(err)
	}
	return logs, n.Delivered(), n.Sent()
}

func diffLogs(t *testing.T, label string, want, got [][]deliveryRecord) {
	t.Helper()
	for id := range want {
		if len(want[id]) != len(got[id]) {
			t.Fatalf("%s: node %d delivered %d messages, want %d", label, id, len(got[id]), len(want[id]))
		}
		for i := range want[id] {
			if want[id][i] != got[id][i] {
				t.Fatalf("%s: node %d delivery %d = %+v, want %+v", label, id, i, got[id][i], want[id][i])
			}
		}
	}
}

// TestSealedScheduleGolden pins the sealed-round schedule itself, in global
// delivery order: an FNV-64a digest of every delivery on the standard
// flood. The online sealed-round goldens pin counters that are
// schedule-insensitive on their scenarios, so without this a change to the
// cell order or to the per-cell streams could go unnoticed.
func TestSealedScheduleGolden(t *testing.T) {
	const w, h = 8, 6
	n := buildFloodGrid(t, w, h, 42, make([][]deliveryRecord, w*h))
	var all []deliveryRecord
	for i := range n.nodes {
		n.nodes[i].proc.(*floodProc).log = &all
	}
	if err := n.SetSealed(true); err != nil {
		t.Fatal(err)
	}
	floodInject(n, w*h)
	if err := n.Run(200_000); err != nil {
		t.Fatal(err)
	}
	d := fnv.New64a()
	for _, r := range all {
		fmt.Fprintf(d, "%d<%d:%d,%d,%d;", r.to, r.from, r.msg.Kind, r.msg.A, r.msg.B)
	}
	const want = "4956 deliveries, digest 81463c93647f92d1"
	if got := fmt.Sprintf("%d deliveries, digest %016x", len(all), d.Sum64()); got != want {
		t.Fatalf("sealed-round flood: %s, want %s", got, want)
	}
}

// TestShardWarmResetMatchesFresh pins reset ≡ fresh for sealed-round
// state: a warm-reset episode matches a fresh network cell for cell, both
// after a different-seed episode that ran to quiescence and after one cut
// off by the step budget with sealed traffic still pending.
func TestShardWarmResetMatchesFresh(t *testing.T) {
	const w, h = 8, 6
	freshLogs, freshDel, freshSent := runFlood(t, w, h, 9)
	warm := func(t *testing.T, perturb func(*Network)) {
		logs := make([][]deliveryRecord, w*h)
		n := buildFloodGrid(t, w, h, 3, logs)
		if err := n.SetSealed(true); err != nil {
			t.Fatal(err)
		}
		floodInject(n, w*h)
		perturb(n)

		n.Reset(9)
		for id := range logs {
			logs[id] = logs[id][:0]
		}
		floodInject(n, w*h)
		if err := n.Run(200_000); err != nil {
			t.Fatal(err)
		}
		if n.Delivered() != freshDel || n.Sent() != freshSent {
			t.Fatalf("warm: delivered=%d sent=%d, want %d/%d", n.Delivered(), n.Sent(), freshDel, freshSent)
		}
		diffLogs(t, "warm", freshLogs, logs)
	}
	t.Run("after-quiescence", func(t *testing.T) {
		warm(t, func(n *Network) {
			if err := n.Run(200_000); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("mid-episode", func(t *testing.T) {
		warm(t, func(n *Network) {
			if err := n.Run(10); !errors.Is(err, ErrStepLimit) || n.Pending() == 0 {
				t.Fatalf("Run(10) = %v with %d pending, want ErrStepLimit with traffic left", err, n.Pending())
			}
		})
	})
}

// TestShardStepMatchesRun pins that Step (one round) iterated to
// quiescence produces Run's schedule exactly.
func TestShardStepMatchesRun(t *testing.T) {
	runLogs, runDel, _ := runFlood(t, 8, 6, 21)

	logs := make([][]deliveryRecord, 48)
	n := buildFloodGrid(t, 8, 6, 21, logs)
	if err := n.SetSealed(true); err != nil {
		t.Fatal(err)
	}
	floodInject(n, 48)
	for {
		progressed, err := n.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !progressed {
			break
		}
	}
	if n.Delivered() != runDel {
		t.Fatalf("stepped delivered=%d, want %d", n.Delivered(), runDel)
	}
	diffLogs(t, "step-vs-run", runLogs, logs)
}

// TestShardStepLimit pins budget semantics at round granularity: an
// exhausted budget returns ErrStepLimit with traffic still pending, and a
// follow-up Run completes the identical schedule.
func TestShardStepLimit(t *testing.T) {
	refLogs, refDel, _ := runFlood(t, 8, 6, 5)

	logs := make([][]deliveryRecord, 48)
	n := buildFloodGrid(t, 8, 6, 5, logs)
	if err := n.SetSealed(true); err != nil {
		t.Fatal(err)
	}
	floodInject(n, 48)
	err := n.Run(10)
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("Run(10) = %v, want ErrStepLimit", err)
	}
	if n.Pending() == 0 {
		t.Fatal("step limit hit but nothing pending")
	}
	if err := n.Run(200_000); err != nil {
		t.Fatal(err)
	}
	if n.Delivered() != refDel {
		t.Fatalf("resumed delivered=%d, want %d", n.Delivered(), refDel)
	}
	diffLogs(t, "resume-after-limit", refLogs, logs)
}

// badSenderTo fires one message to a specific unregistered node id on every
// delivery, so several cells can latch distinguishable errors.
type badSenderTo struct{ target NodeID }

func (b badSenderTo) OnMessage(ctx *Context, _ NodeID, _ Msg) {
	ctx.Send(b.target, ping())
}

// TestShardBadSend pins deferred bad-send semantics under sealed rounds,
// for both handler sends and injections, and the latch's first-error-wins
// order: when two cells send badly in the same round, the error of the
// first cell in ascending id order is the one surfaced, on every later Run
// too.
func TestShardBadSend(t *testing.T) {
	sealed := func(t *testing.T, procs ...Process) *Network {
		n := NewNetwork(1)
		for id, p := range procs {
			if err := n.Add(NodeID(id), p); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.SetSealed(true); err != nil {
			t.Fatal(err)
		}
		return n
	}
	t.Run("handler-send", func(t *testing.T) {
		n := sealed(t, badSender{})
		n.Inject(0, ping())
		if err := n.Run(100); err == nil {
			t.Fatal("send to unknown node not surfaced")
		}
	})
	t.Run("inject", func(t *testing.T) {
		n := sealed(t, &silentProc{})
		n.Inject(99, ping())
		if _, err := n.Step(); err == nil {
			t.Fatal("inject to unknown node not surfaced")
		}
	})
	t.Run("first-error-wins", func(t *testing.T) {
		n := sealed(t, badSenderTo{target: 99}, badSenderTo{target: 77})
		// Injected in descending order: the latch follows cell order, not
		// injection order.
		n.Inject(1, ping())
		n.Inject(0, ping())
		err := n.Run(100)
		if err == nil || !strings.Contains(err.Error(), "unknown node 99") {
			t.Fatalf("two bad sends in one round surfaced %v, want cell 0's (unknown node 99)", err)
		}
		if err2 := n.Run(100); err2 == nil || err2.Error() != err.Error() {
			t.Fatalf("latch moved from %q to %q", err, err2)
		}
	})
}

// TestSetShardsRequiresQuiescence pins the mode-flip guard: pending
// messages are stored differently by the two engines, so SetSealed refuses.
func TestSetShardsRequiresQuiescence(t *testing.T) {
	n := NewNetwork(1)
	if err := n.Add(0, &silentProc{}); err != nil {
		t.Fatal(err)
	}
	n.Inject(0, ping())
	if err := n.SetSealed(true); !errors.Is(err, ErrSealedPending) {
		t.Fatalf("SetSealed with pending = %v, want ErrSealedPending", err)
	}
	if err := n.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := n.SetSealed(true); err != nil {
		t.Fatalf("SetSealed after quiescence: %v", err)
	}
	if !n.Sealed() {
		t.Fatal("Sealed() = false after SetSealed(true)")
	}
	if err := n.SetSealed(false); err != nil {
		t.Fatal(err)
	}
	if n.Sealed() {
		t.Fatal("Sealed() = true after SetSealed(false)")
	}
}

// TestSealedAddKeepsCellStreams pins that registering a node between
// sealed-round runs seeds only the new cell: every existing cell keeps its
// stream position, so the next episode matches, cell for cell, a network
// that had the node from the start.
func TestSealedAddKeepsCellStreams(t *testing.T) {
	const w, h = 4, 4
	second := func(lateAdd bool) [][]deliveryRecord {
		logs := make([][]deliveryRecord, w*h)
		n := buildFloodGrid(t, w, h, 8, logs)
		extra := func() {
			if err := n.Add(w*h, &silentProc{}); err != nil {
				t.Fatal(err)
			}
		}
		if !lateAdd {
			extra()
		}
		if err := n.SetSealed(true); err != nil {
			t.Fatal(err)
		}
		floodInject(n, w*h)
		if err := n.Run(200_000); err != nil {
			t.Fatal(err)
		}
		if lateAdd {
			extra()
		}
		for id := range logs {
			logs[id] = logs[id][:0]
		}
		floodInject(n, w*h)
		if err := n.Run(200_000); err != nil {
			t.Fatal(err)
		}
		return logs
	}
	diffLogs(t, "node added between runs", second(false), second(true))
}

// TestShardWarmEpisodeAllocationFree pins that a warm sealed-round episode —
// reset, inject, run — performs zero allocations once capacities are
// established, matching the legacy warm path's discipline.
func TestShardWarmEpisodeAllocationFree(t *testing.T) {
	const w, h = 8, 6
	logs := make([][]deliveryRecord, w*h)
	n := buildFloodGrid(t, w, h, 1, logs)
	if err := n.SetSealed(true); err != nil {
		t.Fatal(err)
	}
	episode := func() {
		n.Reset(1)
		for id := range logs {
			logs[id] = logs[id][:0]
		}
		floodInject(n, w*h)
		if err := n.Run(200_000); err != nil {
			t.Fatal(err)
		}
	}
	episode() // warm all capacities (rings, logs, round lists, scratch)
	episode()
	if avg := testing.AllocsPerRun(20, episode); avg != 0 {
		t.Fatalf("warm sealed-round episode allocates %.1f times", avg)
	}
}
