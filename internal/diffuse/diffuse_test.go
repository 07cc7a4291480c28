package diffuse

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// kindStart is a host-level test message (32..127 is the test range of the
// sim.Msg kind space) telling a host to initiate a search.
const kindStart uint8 = 40

func startMsg() sim.Msg { return sim.Msg{Kind: kindStart} }

// host is a minimal process wrapping an Engine over a fixed graph.
type host struct {
	t         *testing.T
	id        sim.NodeID
	eng       Engine
	net       *sim.Network
	neighbors []sim.NodeID
	fanout    int
	candidate bool

	completions []bool    // found flags, in completion order
	pending     []int64   // net.Pending() at each completion
	payloads    []Payload // Phase II deliveries
	// autoForward, when set, forwards autoPayload on successful search.
	autoForward bool
	autoPayload Payload
}

func (h *host) Neighbors() []sim.NodeID { return h.neighbors }
func (h *host) Fanout() int             { return h.fanout }
func (h *host) IsCandidate() bool       { return h.candidate }

func (h *host) OnComplete(ctx sim.Sender, seq int, found bool) {
	h.completions = append(h.completions, found)
	h.pending = append(h.pending, h.net.Pending())
	if found && h.autoForward {
		if err := h.eng.ForwardPayload(ctx, seq, h.autoPayload); err != nil {
			h.t.Errorf("forward: %v", err)
		}
	}
}

func (h *host) OnPayload(_ sim.Sender, payload Payload) {
	h.payloads = append(h.payloads, payload)
}

func (h *host) OnMessage(ctx *sim.Context, from sim.NodeID, msg sim.Msg) {
	if h.eng.Handle(h, ctx, from, msg) {
		return
	}
	if msg.Kind == kindStart {
		h.eng.StartSearch(h, ctx)
	}
}

// buildNetwork wires hosts over an undirected adjacency list, all at the
// given fanout (0 = full flood).
func buildNetwork(t *testing.T, seed int64, edges [][2]int, n int, candidates map[int]bool, fanout int) (*sim.Network, []*host) {
	t.Helper()
	adj := make([][]sim.NodeID, n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], sim.NodeID(e[1]))
		adj[e[1]] = append(adj[e[1]], sim.NodeID(e[0]))
	}
	net := sim.NewNetwork(seed, n)
	hosts := make([]*host, n)
	for i := 0; i < n; i++ {
		h := &host{t: t, id: sim.NodeID(i), net: net, neighbors: adj[i], fanout: fanout,
			candidate: candidates[i]}
		h.eng.Reset()
		hosts[i] = h
		if err := net.Add(sim.NodeID(i), h); err != nil {
			t.Fatal(err)
		}
	}
	return net, hosts
}

func TestSearchFindsReachableCandidate(t *testing.T) {
	// Path graph 0-1-2-3 with the only candidate at 3. Fanout 0 and 2 (at
	// least every degree) flood the path, so the search must reach it. At
	// fanout 1 an interior node's one target may point backwards, so the
	// search need only terminate — exactly one completion either way.
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}}
	for _, fanout := range []int{0, 2, 1} {
		t.Run(fmt.Sprintf("fanout-%d", fanout), func(t *testing.T) {
			net, hosts := buildNetwork(t, 1, edges, 4, map[int]bool{3: true}, fanout)
			want := Payload{A: 1000, B: 42}
			hosts[0].autoForward = true
			hosts[0].autoPayload = want
			net.Inject(0, startMsg())
			if err := net.Run(10_000); err != nil {
				t.Fatal(err)
			}
			if len(hosts[0].completions) != 1 {
				t.Fatalf("completions %v, want exactly one", hosts[0].completions)
			}
			found := hosts[0].completions[0]
			if fanout != 1 && !found {
				t.Fatal("full flood missed the candidate")
			}
			if found && (len(hosts[3].payloads) != 1 || hosts[3].payloads[0] != want) {
				t.Fatalf("candidate payloads %v", hosts[3].payloads)
			}
			for i := 1; i <= 2; i++ {
				if len(hosts[i].payloads) != 0 {
					t.Errorf("non-candidate %d received payload", i)
				}
			}
		})
	}
}

func TestSearchNoCandidate(t *testing.T) {
	// Path 0-1-2: fanout 1 is below the middle node's degree.
	edges := [][2]int{{0, 1}, {1, 2}}
	for _, fanout := range []int{0, 1} {
		t.Run(fmt.Sprintf("fanout-%d", fanout), func(t *testing.T) {
			net, hosts := buildNetwork(t, 2, edges, 3, nil, fanout)
			net.Inject(0, startMsg())
			if err := net.Run(10_000); err != nil {
				t.Fatal(err)
			}
			if len(hosts[0].completions) != 1 || hosts[0].completions[0] {
				t.Fatalf("completions %v, want one false", hosts[0].completions)
			}
		})
	}
}

func TestSearchIsolatedInitiator(t *testing.T) {
	// Fanout 2 exceeds the zero degree: the flood sends nothing and the
	// search completes at once, as at fanout 0.
	for _, fanout := range []int{0, 2} {
		t.Run(fmt.Sprintf("fanout-%d", fanout), func(t *testing.T) {
			net, hosts := buildNetwork(t, 3, nil, 1, nil, fanout)
			net.Inject(0, startMsg())
			if err := net.Run(100); err != nil {
				t.Fatal(err)
			}
			if len(hosts[0].completions) != 1 || hosts[0].completions[0] {
				t.Fatalf("isolated initiator completions %v", hosts[0].completions)
			}
		})
	}
}

func TestCandidateNotReachable(t *testing.T) {
	// Two components: 0-1 and 2-3; candidate only in the far component.
	edges := [][2]int{{0, 1}, {2, 3}}
	net, hosts := buildNetwork(t, 4, edges, 4, map[int]bool{3: true}, 0)
	net.Inject(0, startMsg())
	if err := net.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if len(hosts[0].completions) != 1 || hosts[0].completions[0] {
		t.Fatalf("unreachable candidate reported found: %v", hosts[0].completions)
	}
}

func TestRepeatedSearchesBySameInitiator(t *testing.T) {
	// The seq number lets the same initiator run fresh computations: first
	// search finds the candidate; then the candidate stops being one and a
	// second search must report not-found.
	edges := [][2]int{{0, 1}, {1, 2}}
	net, hosts := buildNetwork(t, 5, edges, 3, map[int]bool{2: true}, 0)
	net.Inject(0, startMsg())
	if err := net.Run(10_000); err != nil {
		t.Fatal(err)
	}
	hosts[2].candidate = false
	net.Inject(0, startMsg())
	if err := net.Run(10_000); err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false}
	if len(hosts[0].completions) != 2 {
		t.Fatalf("completions %v", hosts[0].completions)
	}
	for i, w := range want {
		if hosts[0].completions[i] != w {
			t.Fatalf("completion %d = %v, want %v", i, hosts[0].completions[i], w)
		}
	}
}

// randomConnected draws a random connected graph on 3..17 nodes: a random
// backbone tree plus extra chords.
func randomConnected(rng *rand.Rand) (int, [][2]int) {
	n := 3 + rng.Intn(15)
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{rng.Intn(i), i})
	}
	for k := 0; k < n/2; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			edges = append(edges, [2]int{a, b})
		}
	}
	return n, edges
}

// sweepRandomGraphs searches from node 0 on 40 random connected graphs at
// one fanout: the search completes exactly once, never reports a candidate
// when none exists, and delivers a successful payload exactly once to a
// true candidate. The full flood (fanout 0) also finds a candidate
// whenever one exists.
func sweepRandomGraphs(t *testing.T, fanout int) {
	t.Helper()
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		n, edges := randomConnected(rng)
		candidates := map[int]bool{}
		for i := 1; i < n; i++ {
			if rng.Intn(4) == 0 {
				candidates[i] = true
			}
		}
		net, hosts := buildNetwork(t, int64(trial), edges, n, candidates, fanout)
		hosts[0].autoForward = true
		hosts[0].autoPayload = Payload{A: uint32(trial), B: 9}
		net.Inject(0, startMsg())
		if err := net.Run(1_000_000); err != nil {
			t.Fatalf("trial %d fanout %d: %v", trial, fanout, err)
		}
		if len(hosts[0].completions) != 1 {
			t.Fatalf("trial %d fanout %d: completions %v", trial, fanout, hosts[0].completions)
		}
		found := hosts[0].completions[0]
		if found && len(candidates) == 0 {
			t.Fatalf("trial %d fanout %d: found without candidates", trial, fanout)
		}
		// Graph is connected, so a full flood finds a candidate iff one
		// exists.
		if fanout == 0 && found != (len(candidates) > 0) {
			t.Fatalf("trial %d: found=%v but candidates=%v", trial, found, candidates)
		}
		delivered := 0
		for i, h := range hosts {
			if len(h.payloads) > 0 && !candidates[i] {
				t.Fatalf("trial %d fanout %d: payload at non-candidate %d", trial, fanout, i)
			}
			delivered += len(h.payloads)
		}
		if found && delivered != 1 {
			t.Fatalf("trial %d fanout %d: payload delivered %d times", trial, fanout, delivered)
		}
	}
}

func TestRandomGraphsAlwaysTerminateAndAreCorrect(t *testing.T) {
	sweepRandomGraphs(t, 0)
}

// TestAlwaysTerminatesAnyFanout runs the random-graph sweep at fanouts 1..3,
// where the search covers only a subgraph: it must still complete once and
// stay correct, though it may miss a candidate.
func TestAlwaysTerminatesAnyFanout(t *testing.T) {
	for fanout := 1; fanout <= 3; fanout++ {
		sweepRandomGraphs(t, fanout)
	}
}

// TestCompletionOnlyAtQuiescence is the Dijkstra-Scholten soundness
// property: a search that finds no candidate completes exactly once, and
// only when no message of it is still in flight. The network counts a
// delivery before calling the handler, so Pending() == 0 inside OnComplete
// means nothing else is queued. Only found=false searches are checked:
// with a candidate, Algorithm 2 sends the discovery up early, so the root
// may complete before the rest of the tree drains.
func TestCompletionOnlyAtQuiescence(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 60; trial++ {
		n, edges := randomConnected(rng)
		root := rng.Intn(n)
		for _, fanout := range []int{0, 1, 2} {
			net, hosts := buildNetwork(t, int64(trial), edges, n, nil, fanout)
			net.Inject(sim.NodeID(root), startMsg())
			if err := net.Run(1_000_000); err != nil {
				t.Fatalf("trial %d fanout %d: %v", trial, fanout, err)
			}
			h := hosts[root]
			if len(h.completions) != 1 || h.completions[0] {
				t.Fatalf("trial %d fanout %d: completions %v, want one false",
					trial, fanout, h.completions)
			}
			if h.pending[0] != 0 {
				t.Fatalf("trial %d fanout %d: completed with %d messages in flight",
					trial, fanout, h.pending[0])
			}
		}
	}
}

// searchTraffic runs one search from node 0 and returns its delivered
// message count, checking the linear budget: each edge carries at most a
// constant number of Phase I messages (2 queries + 2 replies), so
// deliveries <= ~4*E + path forwards at any fanout.
func searchTraffic(t *testing.T, seed int64, edges [][2]int, n int, candidates map[int]bool, fanout int) int64 {
	t.Helper()
	net, hosts := buildNetwork(t, seed, edges, n, candidates, fanout)
	hosts[0].autoForward = true
	net.Inject(0, startMsg())
	if err := net.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if len(hosts[0].completions) != 1 {
		t.Fatalf("fanout %d: completions %v", fanout, hosts[0].completions)
	}
	maxMsgs := int64(4*len(edges) + n + 1)
	if net.Delivered() > maxMsgs {
		t.Errorf("fanout %d: delivered %d messages, budget %d", fanout, net.Delivered(), maxMsgs)
	}
	return net.Delivered()
}

func TestMessageComplexityLinearInEdges(t *testing.T) {
	// A 40-node path with the candidate at the far end.
	n := 40
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{i - 1, i})
	}
	searchTraffic(t, 9, edges, n, map[int]bool{n - 1: true}, 0)
}

// TestFanoutBoundsTraffic pins the fanout's traffic side on the complete
// graph on 10 nodes with no candidate (the worst-case full spread): swept
// from the full flood down to fanout 1, lowering the fanout can only lower
// (or keep) one search's delivered-message count, and fanout 1 saves some.
func TestFanoutBoundsTraffic(t *testing.T) {
	const n = 10
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	full := searchTraffic(t, 5, edges, n, nil, 0)
	prev := full
	for fanout := n - 1; fanout >= 1; fanout-- {
		got := searchTraffic(t, 5, edges, n, nil, fanout)
		if got > prev {
			t.Errorf("fanout %d delivered %d messages, more than fanout %d's %d",
				fanout, got, fanout+1, prev)
		}
		prev = got
	}
	if prev >= full {
		t.Errorf("fanout 1 delivered %d messages, full flood %d — no traffic saving", prev, full)
	}
}

// TestEngineLayout pins the engine at its protocol state alone: six 32-bit
// words and the state byte, at most 28 bytes, embedded once per vehicle.
func TestEngineLayout(t *testing.T) {
	if got := unsafe.Sizeof(Engine{}); got > 28 {
		t.Errorf("Engine is %d bytes, want at most 28", got)
	}
}

func TestForwardPayloadErrors(t *testing.T) {
	edges := [][2]int{{0, 1}}
	net, hosts := buildNetwork(t, 11, edges, 2, nil, 0)
	net.Inject(0, startMsg())
	if err := net.Run(1000); err != nil {
		t.Fatal(err)
	}
	// Search failed (no candidates): forwarding must error.
	fake := &fakeSender{self: 0}
	if err := hosts[0].eng.ForwardPayload(fake, 1, Payload{A: 1}); err == nil {
		t.Error("forwarding without a candidate should fail")
	}
	if err := hosts[0].eng.ForwardPayload(fake, 99, Payload{A: 1}); err == nil {
		t.Error("forwarding an unknown seq should fail")
	}
	if err := hosts[1].eng.ForwardPayload(&fakeSender{self: 1}, 1, Payload{A: 1}); err == nil {
		t.Error("non-initiator forwarding should fail")
	}
}

type fakeSender struct {
	self sim.NodeID
	sent []sim.Msg
}

func (f *fakeSender) Self() sim.NodeID { return f.self }
func (f *fakeSender) Send(_ sim.NodeID, msg sim.Msg) {
	f.sent = append(f.sent, msg)
}

func TestStateString(t *testing.T) {
	for _, s := range []State{Waiting, Searching, Initiator, State(42)} {
		if s.String() == "" {
			t.Errorf("empty string for state %d", int(s))
		}
	}
}

func TestStateTransitions(t *testing.T) {
	edges := [][2]int{{0, 1}, {1, 2}}
	net, hosts := buildNetwork(t, 13, edges, 3, map[int]bool{2: true}, 0)
	for _, h := range hosts {
		if h.eng.state != Waiting {
			t.Fatalf("node %d initial state %v", h.id, h.eng.state)
		}
	}
	net.Inject(0, startMsg())
	if err := net.Run(10_000); err != nil {
		t.Fatal(err)
	}
	// After quiescence everyone is back to waiting (Figure 3.1's cycle).
	for _, h := range hosts {
		if h.eng.state != Waiting {
			t.Errorf("node %d final state %v, want waiting", h.id, h.eng.state)
		}
	}
}

// TestEngineResetMatchesFresh pins the warm-start contract: after Reset,
// an engine (and the network it lives in) replays a search bit-for-bit
// identically to freshly constructed ones — same completion result, same
// delivered-message count, and the sequence counter starts over at 1 — at
// the full flood and at a fanout below the degree.
func TestEngineResetMatchesFresh(t *testing.T) {
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 4}, {4, 3}}
	run := func(t *testing.T, net *sim.Network, hosts []*host) (bool, int64) {
		t.Helper()
		net.Inject(0, startMsg())
		if err := net.Run(10_000); err != nil {
			t.Fatal(err)
		}
		if len(hosts[0].completions) != 1 {
			t.Fatalf("want 1 completion, got %d", len(hosts[0].completions))
		}
		return hosts[0].completions[0], net.Delivered()
	}
	for _, fanout := range []int{0, 1} {
		t.Run(fmt.Sprintf("fanout-%d", fanout), func(t *testing.T) {
			net, hosts := buildNetwork(t, 11, edges, 5, map[int]bool{3: true}, fanout)
			wantFound, wantMsgs := run(t, net, hosts)

			net2, hosts2 := buildNetwork(t, 11, edges, 5, map[int]bool{3: true}, fanout)
			if f, m := run(t, net2, hosts2); f != wantFound || m != wantMsgs {
				t.Fatalf("fresh replay diverged: found=%v msgs=%d, want %v/%d",
					f, m, wantFound, wantMsgs)
			}
			for i := 0; i < 3; i++ {
				net2.Reset(11, false)
				for _, h := range hosts2 {
					h.eng.Reset()
					h.completions = nil
				}
				if f, m := run(t, net2, hosts2); f != wantFound || m != wantMsgs {
					t.Fatalf("reset replay %d diverged: found=%v msgs=%d, want %v/%d",
						i, f, m, wantFound, wantMsgs)
				}
				if hosts2[0].eng.seq != 1 {
					t.Fatalf("reset engine's first computation has seq %d, want 1", hosts2[0].eng.seq)
				}
			}
		})
	}
}
