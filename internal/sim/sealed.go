package sim

import (
	"errors"
	"math/bits"
	"slices"
)

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
//     messages play in ascending id order, and each cell delivers its sealed
//     messages using its own RNG stream, derived from the episode seed and
//     the cell id.
//   - Within a cell's turn the pick discipline mirrors the legacy scheduler:
//     a ready set of links with sealed messages, one draw per pick while more
//     than one link is ready, swap-remove on drain. The ready set is built in
//     sender-id order, never in link-table slot order, so the draw-to-link
//     mapping does not depend on the order in which links were created.
//
// Section 3.2's model asks only for per-link FIFO and arbitrary finite
// delays; any such fair order is a valid asynchronous execution, and this is
// one of them.
//
// Run, Step and the link lookup of sends and injections are shared with the
// legacy scheduler (sim.go). Only the unit that advance plays (playRound)
// and the queueing of a resolved link (sealedSend, sealedInject) differ.

// ErrSealedPending is returned by SetSealed when the network still holds
// undelivered messages: the legacy and sealed-round engines store pending
// traffic differently, so the scheduler may only change while quiescent.
var ErrSealedPending = errors.New("sim: SetSealed requires a quiescent network (pending messages exist)")

// SetSealed selects the scheduler: true selects the sealed-round scheduler
// documented above, false restores the legacy single-stream scheduler (the
// default). The network must be quiescent. The RNG state follows the CURRENT
// seed: selecting sealed rounds re-derives every cell stream from it, and
// returning to legacy reseeds the legacy source with it (pass the same seed
// to Reset to restart the episode under the new scheduler).
func (n *Network) SetSealed(on bool) error {
	if n.sent != n.delivered {
		return ErrSealedPending
	}
	if !on {
		if n.sealed {
			n.sealed = false
			// Sealed Resets leave the legacy source untouched; restore the
			// state a legacy Reset(curSeed) would have produced.
			n.reseed(n.curSeed)
		}
		return nil
	}
	n.sealed = true
	n.cellRNG = slices.Grow(n.cellRNG[:0], len(n.nodes))[:len(n.nodes)]
	n.seedCells(0)
	return nil
}

// seedCells derives the stream state of cells [from, len(cellRNG)) from
// (seed, cell id): the splitmix64 finalizer over seed + (cell+1)*golden, so
// streams are decorrelated across cells and across seeds while staying a pure
// function of the pair.
func (n *Network) seedCells(from int) {
	base := uint64(n.curSeed)
	for c := from; c < len(n.cellRNG); c++ {
		n.cellRNG[c] = mix64(base + (uint64(c)+1)*0x9E3779B97F4A7C15)
	}
}

// mix64 is the splitmix64 output function: a bijective avalanche mix.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// nextCell advances one cell stream (splitmix64: golden-ratio counter plus
// the mix). One state word per cell keeps a million-cell arena's RNG in
// 8 MB, where mirroring the legacy 607-word lagged-Fibonacci state per cell
// would cost 5 KB each.
func nextCell(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	return mix64(*state)
}

// cellIntn draws uniformly from [0, k) off one cell stream using Lemire's
// unbiased multiply-shift (the widening multiply maps a 64-bit draw to the
// range; the rare low-product rejection removes the bias exactly).
func cellIntn(state *uint64, k int) int {
	x := nextCell(state)
	hi, lo := bits.Mul64(x, uint64(k))
	if lo < uint64(k) {
		t := -uint64(k) % uint64(k)
		for lo < t {
			x = nextCell(state)
			hi, lo = bits.Mul64(x, uint64(k))
		}
	}
	return int(hi)
}

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
	rng := &n.cellRNG[c]
	for len(ready) > 0 {
		j := 0
		if len(ready) > 1 {
			j = cellIntn(rng, len(ready))
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
