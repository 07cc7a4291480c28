// Package diffuse implements the Dijkstra-Scholten diffusing computation of
// thesis Section 3.1 specialized, as in Section 3.2.3 (Algorithm 2), to a
// decentralized *search*: an initiator floods query messages through its
// neighborhood graph; candidate nodes answer true; replies propagate back up
// the spanning tree built by first-query parent pointers; termination is
// detected when the initiator's outstanding-reply counter reaches zero. On
// success the child pointers from initiator to candidate form a path, along
// which Phase II (thesis Section 3.2.4) forwards an arbitrary payload.
//
// Peer choice is the only policy, and the host owns it (Host.Fanout; the
// online strategy answers with its episode's one fanout). Fanout 0 floods
// every neighbor, exactly Algorithm 2. A fanout f below a node's degree
// makes the flood a derandomized gossip in the tunable family of De Florio &
// Blondia: a node that joins forwards the query to only f neighbors, so the
// computation covers a subgraph — fewer messages, but the search may miss
// the only idle candidate. The chosen neighbors are f consecutive entries of
// the neighbor list from an offset mixed from (initiator, self, sequence),
// never a draw from the simulator's RNG, so episodes stay single-seed
// reproducible. Acknowledgement and termination detection are unchanged: a
// fanout-limited search always completes.
//
// The engine is plain protocol state embedded by value in a host process
// (the online strategy's vehicle), the per-node state of a Dijkstra-Scholten
// diffusing computation and nothing else. The host calls Reset, passes
// itself to StartSearch and to Handle, into which it routes diffusion
// messages, and through the Host interface names its neighbors and fanout,
// answers the search predicate, and hears when a computation it initiated
// completes and when a payload reaches it as the found candidate.
package diffuse

import (
	"fmt"

	"repro/internal/sim"
)

// Message kinds owned by this package (range 1..15 of the sim.Msg kind
// space; 4..15 are unused). Operand layout per kind:
//
//	KindQuery   — A: initiator id, B: sequence number (Phase I probe)
//	KindReply   — A: initiator id, B: sequence number, C: 1 if the subtree
//	              below the sender contains a candidate, else 0
//	KindForward — A: initiator id, B: sequence number (the computation the
//	              forward belongs to, checked against the receiver's local
//	              state exactly as the boxed implementation did), C/D: the
//	              two opaque payload words (Payload.A / Payload.B)
const (
	KindQuery uint8 = iota + 1
	KindReply
	KindForward
)

// Payload is the opaque two-word Phase II payload: the initiator encodes
// whatever it wants the found candidate to receive (the online layer packs
// a destination cell index and a pair id). It rides KindForward messages
// inline — no boxing, no pointers.
type Payload struct {
	A, B uint32
}

// State is the message-transfer state S2 of thesis Section 3.2.1.
type State uint8

// Message-transfer states (Figure 3.1).
const (
	// Waiting: not currently partaking in a diffusing computation.
	Waiting State = iota + 1
	// Searching: joined a computation and awaiting replies.
	Searching
	// Initiator: started the current computation and awaiting replies.
	Initiator
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Waiting:
		return "waiting"
	case Searching:
		return "searching"
	case Initiator:
		return "initiator"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Host is the process an Engine is embedded in: its place in the
// neighborhood graph, its peer-choice policy, the search predicate and the
// two protocol events the engine reports. The host passes itself to every
// engine call that may flood or report.
type Host interface {
	// Neighbors returns the nodes to flood queries to (for the online
	// strategy: vehicles within communication range in the same cube). The
	// engine only reads the slice, so hosts may share it.
	Neighbors() []sim.NodeID
	// Fanout returns the per-node forwarding bound: 0 (or at least the
	// neighbor count) floods every neighbor. Read at every flood, so a host
	// can re-tune it between computations.
	Fanout() int
	// IsCandidate reports whether this node satisfies the search predicate
	// (for the online strategy: the vehicle is idle).
	IsCandidate() bool
	// OnComplete fires at the initiator when its computation terminates.
	// found reports whether a candidate was located.
	OnComplete(ctx sim.Sender, seq int, found bool)
	// OnPayload fires at the candidate when a Phase II payload arrives.
	OnPayload(ctx sim.Sender, payload Payload)
}

// Engine holds the per-node Phase I/II protocol state: the local data of
// thesis Section 3.2.3.2 (num, par, child, init), the computation's
// sequence number and the node's own sequence counter, in 28 bytes. Sequence
// numbers are kept in the 32 bits the wire carries them in (sim.Msg.B). Call
// Reset before first use.
type Engine struct {
	num   int32      // outstanding replies
	par   sim.NodeID // parent in the computation tree
	child sim.NodeID // first subtree that reported a candidate
	init  sim.NodeID // initiator of the computation last joined
	seq   uint32     // sequence number of the computation last joined

	nextSeq uint32 // local counter for computations this node initiates
	state   State
}

// Reset puts the protocol state in its initial form (Waiting, no
// parent/child/initiator, sequence counter at zero). It both arms a new
// engine and re-arms a used one, so a reset engine behaves bit-for-bit like
// a new one: part of the online layer's warm-start contract for reused
// runners.
func (e *Engine) Reset() {
	e.state = Waiting
	e.num = 0
	e.par = sim.None
	e.child = sim.None
	e.init = sim.None
	e.seq = 0
	e.nextSeq = 0
}

// queryMsg / replyMsg encode the Phase I wire format.
func queryMsg(init sim.NodeID, seq uint32) sim.Msg {
	return sim.Msg{Kind: KindQuery, A: uint32(init), B: seq}
}

func replyMsg(init sim.NodeID, seq uint32, found bool) sim.Msg {
	m := sim.Msg{Kind: KindReply, A: uint32(init), B: seq}
	if found {
		m.C = 1
	}
	return m
}

// flood sends the computation's query to the fanout subset of h's
// neighbors and returns how many were contacted: all of them at fanout 0
// (or at least the degree), else f consecutive neighbors from a start
// offset mixed from (initiator, self, sequence) — the derandomized stand-in
// for random peer selection. No slice is built: the warm search path stays
// allocation-free.
func (e *Engine) flood(h Host, ctx sim.Sender, init sim.NodeID, seq uint32) int32 {
	neigh := h.Neighbors()
	n := len(neigh)
	f := h.Fanout()
	// One inline query value fans out to every chosen neighbor: each send
	// copies three words into the link's ring buffer.
	msg := queryMsg(init, seq)
	if f <= 0 || f >= n {
		for _, t := range neigh {
			ctx.Send(t, msg)
		}
		return int32(n)
	}
	start := (31*int(init) + 17*int(ctx.Self()) + 13*int(seq)) % n
	for i := 0; i < f; i++ {
		ctx.Send(neigh[(start+i)%n], msg)
	}
	return int32(f)
}

// StartSearch begins a new diffusing computation with h, the engine's
// host, as the initiator (thesis Algorithm 2, "when a vehicle p uses up its
// energy"). It returns the computation's sequence number. If the node has
// no neighbors the computation completes immediately (found=false).
func (e *Engine) StartSearch(h Host, ctx sim.Sender) int {
	e.nextSeq++
	seq := e.nextSeq
	e.state = Initiator
	e.par = sim.None
	e.child = sim.None
	e.init = ctx.Self()
	e.seq = seq
	e.num = e.flood(h, ctx, ctx.Self(), seq)
	if e.num == 0 {
		e.state = Waiting
		h.OnComplete(ctx, int(seq), false)
	}
	return int(seq)
}

// Handle processes a message if it belongs to the diffusion protocol and
// reports whether it consumed it. Hosts call this first from OnMessage,
// passing themselves as h.
func (e *Engine) Handle(h Host, ctx sim.Sender, from sim.NodeID, m sim.Msg) bool {
	switch m.Kind {
	case KindQuery:
		e.onQuery(h, ctx, from, sim.NodeID(m.A), m.B)
	case KindReply:
		e.onReply(h, ctx, from, sim.NodeID(m.A), m.B, m.C != 0)
	case KindForward:
		e.onForward(h, ctx, m)
	default:
		return false
	}
	return true
}

func (e *Engine) onQuery(h Host, ctx sim.Sender, from, init sim.NodeID, seq uint32) {
	fresh := e.init != init || e.seq != seq
	if e.state != Waiting || !fresh {
		// Already part of this computation (or busy with another): tell the
		// sender its tree topology need not change.
		ctx.Send(from, replyMsg(init, seq, false))
		return
	}
	e.par = from
	e.init = init
	e.seq = seq
	e.child = sim.None
	if h.IsCandidate() {
		// An idle node answers immediately and stays waiting; it becomes
		// the leaf of the search path.
		ctx.Send(from, replyMsg(init, seq, true))
		return
	}
	e.state = Searching
	e.num = e.flood(h, ctx, init, seq)
	if e.num == 0 {
		e.state = Waiting
		ctx.Send(from, replyMsg(init, seq, false))
	}
}

func (e *Engine) onReply(h Host, ctx sim.Sender, from, init sim.NodeID, seq uint32, found bool) {
	if init != e.init || seq != e.seq || (e.state != Searching && e.state != Initiator) {
		// Stale reply from an abandoned computation; drop it.
		return
	}
	e.num--
	if found && e.child == sim.None {
		e.child = from
		if e.state == Searching {
			// Propagate the discovery up immediately (Algorithm 2).
			ctx.Send(e.par, replyMsg(init, seq, true))
		}
	}
	if e.num == 0 {
		wasInitiator := e.state == Initiator
		e.state = Waiting
		if wasInitiator {
			h.OnComplete(ctx, int(seq), e.child != sim.None)
			return
		}
		if e.child == sim.None {
			ctx.Send(e.par, replyMsg(init, seq, false))
		}
	}
}

// ForwardPayload launches Phase II from the initiator after a successful
// search: the payload rides the child chain to the candidate.
func (e *Engine) ForwardPayload(ctx sim.Sender, seq int, payload Payload) error {
	if e.init != ctx.Self() || int(e.seq) != seq {
		return fmt.Errorf("diffuse: node %d does not own computation seq %d", ctx.Self(), seq)
	}
	if e.child == sim.None {
		return fmt.Errorf("diffuse: computation %d found no candidate", seq)
	}
	ctx.Send(e.child, sim.Msg{
		Kind: KindForward,
		A:    uint32(ctx.Self()), B: e.seq,
		C: payload.A, D: payload.B,
	})
	return nil
}

func (e *Engine) onForward(h Host, ctx sim.Sender, m sim.Msg) {
	if e.init != sim.NodeID(m.A) || e.seq != m.B {
		// A forward for a computation this node never joined; drop. (Cannot
		// happen under per-link FIFO, but dropping is the safe behaviour.)
		return
	}
	if e.child != sim.None {
		ctx.Send(e.child, m)
		return
	}
	h.OnPayload(ctx, Payload{A: m.C, B: m.D})
}
