package sim

import "slices"

// Sealed-round scheduler.
//
// The legacy scheduler draws one value per delivery from ONE seeded stream,
// bounded by the live global ready-list length, so the bound of draw t+1
// depends on what delivery t's handler enqueued. The sealed-round scheduler
// is a second deterministic schedule family, a pure function of (seed,
// topology, protocol) built from three rules:
//
//   - Time advances in rounds. Every message a handler sends during round r
//     goes straight into the destination ring but stays unsealed; the round
//     barrier seals it, so it becomes deliverable in round r+1. Everything
//     delivered within a round was sealed before the round began.
//   - The unit of scheduling is the cell (node). Cells holding sealed
//     messages play in ascending id order.
//   - Within a cell's turn the pick discipline mirrors the legacy scheduler:
//     a ready set of links with sealed messages, one draw per pick while more
//     than one link is ready, swap-remove on drain. The draws come from the
//     network's one generator (intn, the legacy draw), taken in cell order.
//     The ready set is built in sender-id order, never in link-table slot
//     order, so the draw-to-link mapping does not depend on the order in
//     which links were created.
//
// Section 3.2's model asks only for per-link FIFO and arbitrary finite
// delays; any such fair order is a valid asynchronous execution, and this is
// one of them.
//
// Reset selects the scheduler of the next episode. Run, Step, the generator
// and the link lookup of sends and injections are shared with the legacy
// scheduler (sim.go). Only the unit that advance plays (playRound) and the
// queueing of a resolved link (sealedSend, sealedInject) differ.

// sealedInject queues an external event on link q, sealed at once: it is
// deliverable in the next round played.
func (n *Network) sealedInject(q *linkQueue, msg Msg) {
	q.push(&n.rings, msg)
	q.sealed++
	if mb := &n.nodes[q.to]; !mb.pend {
		mb.pend = true
		n.active = append(n.active, q.to)
	}
}

// sealedSend queues a handler's message on link q, unsealed: it becomes
// deliverable after the current round's barrier. The link's first unsealed
// arrival puts it on the touched list, which the barrier seals; the cell's
// pending transition puts it on the next list.
func (n *Network) sealedSend(q *linkQueue, msg Msg) {
	if q.count == q.sealed {
		n.touched = append(n.touched, q)
	}
	q.push(&n.rings, msg)
	if mb := &n.nodes[q.to]; !mb.pend {
		mb.pend = true
		n.next = append(n.next, q.to)
	}
}

// playRound delivers every sealed message, cells in ascending order, then
// runs the barrier: seal the links touched this round and swap in the next
// active list.
func (n *Network) playRound() {
	slices.Sort(n.active)
	for _, c := range n.active {
		n.nodes[c].pend = false
	}
	for _, c := range n.active {
		n.playCell(c)
	}
	for _, q := range n.touched {
		q.sealed = q.count
	}
	n.touched = n.touched[:0]
	n.active, n.next = n.next, n.active[:0]
}

// playCell drains cell c's sealed messages. The ready set is built in
// sender-id order and then evolves by the legacy pick discipline — draw
// while more than one link is ready, swap-remove on drain. Messages arriving
// mid-turn raise count above sealed and are left for the next round.
func (n *Network) playCell(c NodeID) {
	mb := &n.nodes[c]
	ready := n.pick[:0]
	// The slice header is taken before any delivery. A mid-turn first
	// contact appends past its length or grows mb.linkQs into a fresh region
	// (a region is never handed out twice), so the scanned range cannot
	// shift.
	qs := mb.linkQs
	for i := range qs {
		if qs[i].sealed > 0 {
			j := len(ready)
			ready = append(ready, int32(i))
			for j > 0 && qs[ready[j-1]].from > qs[i].from {
				ready[j], ready[j-1] = ready[j-1], ready[j]
				j--
			}
		}
	}
	for len(ready) > 0 {
		j := 0
		if len(ready) > 1 {
			j = n.intn(len(ready))
		}
		// Arena entries never move, so the pointer from the pre-taken
		// backing stays valid even when a handler send to this very cell
		// grows the node's slot table mid-turn.
		q := qs[ready[j]]
		m := q.pop()
		q.sealed--
		if q.sealed == 0 {
			last := len(ready) - 1
			ready[j] = ready[last]
			ready = ready[:last]
		}
		n.delivered++
		n.ctx.self = c
		q.proc.OnMessage(&n.ctx, q.from, m)
	}
	n.pick = ready[:0]
}
