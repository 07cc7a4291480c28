// Package diffuse implements the Dijkstra-Scholten diffusing computation of
// thesis Section 3.1 specialized, as in Section 3.2.3 (Algorithm 2), to a
// decentralized *search*: an initiator floods query messages through its
// neighborhood graph; candidate nodes answer true; replies propagate back up
// the spanning tree built by first-query parent pointers; termination is
// detected when the initiator's outstanding-reply counter reaches zero. On
// success the child pointers from initiator to candidate form a path, along
// which Phase II (thesis Section 3.2.4) forwards an arbitrary payload.
//
// Peer choice is the engine's only policy (Engine.Fanout). Fanout 0 floods
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
// The engine is plain data embedded by value in a host process (the online
// strategy's vehicle): the host sets the engine's Host, Neighbors and Fanout
// fields, calls Reset, routes diffusion messages into Handle, and through
// the Host interface answers the search predicate and hears when a
// computation it initiated completes and when a payload reaches it as the
// found candidate.
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
type State int

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

// Host is the process an Engine is embedded in: the search predicate and
// the two protocol events the engine reports.
type Host interface {
	// IsCandidate reports whether this node satisfies the search predicate
	// (for the online strategy: the vehicle is idle).
	IsCandidate() bool
	// OnComplete fires at the initiator when its computation terminates.
	// found reports whether a candidate was located.
	OnComplete(ctx sim.Sender, seq int, found bool)
	// OnPayload fires at the candidate when a Phase II payload arrives.
	OnPayload(ctx sim.Sender, payload Payload)
}

// Engine holds the per-node Phase I/II protocol state (the local data of
// thesis Section 3.2.3.2: num, par, child, init) behind three plain
// configuration fields. To set one up, assign the fields and call Reset.
type Engine struct {
	// Host receives the engine's predicate queries and events. Required.
	Host Host
	// Neighbors are the nodes to flood queries to (for the online strategy:
	// vehicles within communication range in the same cube). The engine
	// only reads the slice, so hosts may share it.
	Neighbors []sim.NodeID
	// Fanout is the per-node forwarding bound: 0 (or at least the neighbor
	// count) floods every neighbor. Read per flood, so a host can re-tune it
	// between computations.
	Fanout int

	state State
	num   int        // outstanding replies
	par   sim.NodeID // parent in the computation tree
	child sim.NodeID // first subtree that reported a candidate
	init  sim.NodeID // initiator of the computation last joined
	seq   int        // sequence number of the computation last joined

	nextSeq int // local counter for computations this node initiates
}

// Reset puts the protocol state in its initial form (Waiting, no
// parent/child/initiator, sequence counter at zero) and leaves the three
// configuration fields alone. It both arms a newly configured engine and
// re-arms a used one, so a reset engine behaves bit-for-bit like a new one:
// part of the online layer's warm-start contract for reused runners.
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
func queryMsg(init sim.NodeID, seq int) sim.Msg {
	return sim.Msg{Kind: KindQuery, A: uint32(init), B: uint32(seq)}
}

func replyMsg(init sim.NodeID, seq int, found bool) sim.Msg {
	m := sim.Msg{Kind: KindReply, A: uint32(init), B: uint32(seq)}
	if found {
		m.C = 1
	}
	return m
}

// flood sends the computation's query to this node's fanout subset and
// returns how many neighbors were contacted: all of them at fanout 0 (or at
// least the degree), else f consecutive neighbors from a start offset mixed
// from (initiator, self, sequence) — the derandomized stand-in for random
// peer selection. No slice is built: the warm search path stays
// allocation-free.
func (e *Engine) flood(ctx sim.Sender, init sim.NodeID, seq int) int {
	neigh := e.Neighbors
	n := len(neigh)
	f := e.Fanout
	// One inline query value fans out to every chosen neighbor: each send
	// copies three words into the link's ring buffer.
	msg := queryMsg(init, seq)
	if f <= 0 || f >= n {
		for _, t := range neigh {
			ctx.Send(t, msg)
		}
		return n
	}
	start := (31*int(init) + 17*int(ctx.Self()) + 13*seq) % n
	for i := 0; i < f; i++ {
		ctx.Send(neigh[(start+i)%n], msg)
	}
	return f
}

// StartSearch begins a new diffusing computation with this node as the
// initiator (thesis Algorithm 2, "when a vehicle p uses up its energy").
// It returns the computation's sequence number. If the node has no
// neighbors the computation completes immediately (found=false).
func (e *Engine) StartSearch(ctx sim.Sender) int {
	e.nextSeq++
	seq := e.nextSeq
	e.state = Initiator
	e.par = sim.None
	e.child = sim.None
	e.init = ctx.Self()
	e.seq = seq
	e.num = e.flood(ctx, ctx.Self(), seq)
	if e.num == 0 {
		e.state = Waiting
		e.Host.OnComplete(ctx, seq, false)
	}
	return seq
}

// Handle processes a message if it belongs to the diffusion protocol and
// reports whether it consumed it. Hosts call this first from OnMessage.
func (e *Engine) Handle(ctx sim.Sender, from sim.NodeID, m sim.Msg) bool {
	switch m.Kind {
	case KindQuery:
		e.onQuery(ctx, from, sim.NodeID(m.A), int(m.B))
	case KindReply:
		e.onReply(ctx, from, sim.NodeID(m.A), int(m.B), m.C != 0)
	case KindForward:
		e.onForward(ctx, m)
	default:
		return false
	}
	return true
}

func (e *Engine) onQuery(ctx sim.Sender, from, init sim.NodeID, seq int) {
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
	if e.Host.IsCandidate() {
		// An idle node answers immediately and stays waiting; it becomes
		// the leaf of the search path.
		ctx.Send(from, replyMsg(init, seq, true))
		return
	}
	e.state = Searching
	e.num = e.flood(ctx, init, seq)
	if e.num == 0 {
		e.state = Waiting
		ctx.Send(from, replyMsg(init, seq, false))
	}
}

func (e *Engine) onReply(ctx sim.Sender, from, init sim.NodeID, seq int, found bool) {
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
			e.Host.OnComplete(ctx, seq, e.child != sim.None)
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
	if e.init != ctx.Self() || e.seq != seq {
		return fmt.Errorf("diffuse: node %d does not own computation seq %d", ctx.Self(), seq)
	}
	if e.child == sim.None {
		return fmt.Errorf("diffuse: computation %d found no candidate", seq)
	}
	ctx.Send(e.child, sim.Msg{
		Kind: KindForward,
		A:    uint32(ctx.Self()), B: uint32(seq),
		C: payload.A, D: payload.B,
	})
	return nil
}

func (e *Engine) onForward(ctx sim.Sender, m sim.Msg) {
	if e.init != sim.NodeID(m.A) || e.seq != int(m.B) {
		// A forward for a computation this node never joined; drop. (Cannot
		// happen under per-link FIFO, but dropping is the safe behaviour.)
		return
	}
	if e.child != sim.None {
		ctx.Send(e.child, m)
		return
	}
	e.Host.OnPayload(ctx, Payload{A: m.C, B: m.D})
}
