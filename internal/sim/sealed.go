package sim

import (
	"errors"
	"math/bits"
	"slices"
)

// Sealed-round scheduler.
//
// The legacy scheduler (Run in sim.go) draws one value per delivery from ONE
// seeded stream, bounded by the live global ready-list length, so the bound
// of draw t+1 depends on what delivery t's handler enqueued. The sealed-round
// scheduler is a second deterministic schedule family, a pure function of
// (seed, topology, protocol) built from three rules:
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

// Sealed reports whether the sealed-round scheduler is selected.
func (n *Network) Sealed() bool { return n.sealed }

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

// sealedInject enqueues an external event straight into the destination
// ring, sealed immediately (deliverable in the first round of the next Run).
// Uses the same cached injection slot as the legacy path, so full-arena
// waves skip the scan.
func (n *Network) sealedInject(to NodeID, msg Msg) {
	mb := &n.nodes[to]
	q := mb.injectQ
	if q == nil {
		_, q = n.queueFor(to, None)
		mb.injectQ = q
	}
	q.push(msg)
	q.sealed++
	if !mb.pend {
		mb.pend = true
		n.active = append(n.active, to)
	}
	n.sent++
}

// sealedSend enqueues one handler-originated message, unsealed: it becomes
// deliverable after the current round's barrier. The link's first arrival of
// the round puts it on the touched list; the cell's pending transition puts
// the cell on the next list. An unknown destination latches the first bad
// send, which the network surfaces once the round completes.
func (n *Network) sealedSend(from, to NodeID, msg Msg) {
	if !n.known(to) {
		n.latchBadSend(to)
		return
	}
	n.sent++
	_, q := n.queueFor(to, from)
	if q.count == q.sealed {
		n.touched = append(n.touched, q)
	}
	q.push(msg)
	mb := &n.nodes[to]
	if !mb.pend {
		mb.pend = true
		n.next = append(n.next, to)
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
	// The slice header is taken before any delivery, so mid-turn
	// first-contact appends (which touch mb.linkQs, not this backing) cannot
	// shift the scanned range.
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

// runSealed is the sealed-round Run loop. The step budget is enforced at
// round granularity: a round always completes, and the error is returned at
// the next boundary if undelivered traffic remains — every round delivers at
// least one message, so a livelock still terminates within maxSteps rounds.
func (n *Network) runSealed(maxSteps int64) error {
	start := n.delivered
	for {
		if n.badSend != nil {
			return n.badSend
		}
		if len(n.active) == 0 {
			return nil
		}
		if n.delivered-start >= maxSteps {
			return stepLimitErr(maxSteps)
		}
		n.playRound()
	}
}

// stepSealed delivers one full round (the sealed-round scheduler's
// indivisible unit) and reports whether anything was delivered.
func (n *Network) stepSealed() (bool, error) {
	if n.badSend != nil {
		return false, n.badSend
	}
	if len(n.active) == 0 {
		return false, nil
	}
	before := n.delivered
	n.playRound()
	return n.delivered > before, n.badSend
}
