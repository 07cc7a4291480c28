// Package sim is a deterministic discrete-event message-passing simulator
// implementing the communication model of thesis Section 3.2: processes with
// unbounded input buffers, bidirectional error-free links, per-link FIFO
// ("synchronous communication: messages from P to Q arrive in the order
// sent"), and arbitrary finite delays — realized by delivering, at each
// step, the head message of a pseudo-randomly chosen nonempty link. The
// picks come from a math/rand/v2 PCG generator that the network holds by
// value; the model leaves the delivery order to the adversary, so the
// generator is not part of the reproduction. With a fixed seed every run is
// bit-for-bit reproducible.
//
// Storage is dense: node ids are expected to be small non-negative integers
// (the online layer uses arena cell indices directly), processes live in a
// slice, and each node's pending traffic sits in a slice-backed mailbox of
// per-link ring buffers — no map lookups or per-message allocations on the
// delivery hot path.
//
// Messages are compact tagged values (Msg), stored inline in the ring
// buffers: the protocol vocabulary above this layer is small and closed, so
// a kind byte plus a few integer operands replaces the old boxed
// `interface{}` payloads. Delivery moves plain words — no interface boxing,
// no pointer chasing, and the buffers are invisible to the garbage
// collector.
package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
)

// NodeID identifies a process in the network. Ids must be non-negative and
// should be compact (dense storage is sized by NewNetwork's node count, or
// by the largest id seen when that is larger).
type NodeID int32

// None is the null node id (used for "no parent" and similar sentinels).
const None NodeID = -1

// Msg is a compact tagged message: a kind byte plus integer operands,
// delivered by value. Each layer owns a globally unique range of kinds
// (package diffuse: 1..15, package online: 16..31; tests use 32..127;
// 128..255 are unowned) and defines what the operands mean per kind. Kind 0
// is reserved, so the zero Msg reads as "no message".
//
// A and B are the primary operands; every single-phase message in the
// system fits in them (a node id, a sequence number, an arena cell index, a
// pair id). C and D are extended operands used by messages that relay on
// behalf of others — the Phase II forward carries its computation identity
// in A/B and the two payload words in C/D, preserving the boxed
// implementation's stale-forward drop check without an indirection.
type Msg struct {
	Kind uint8
	// pad aligns the struct to 24 bytes so slice elements copy as three
	// 8-byte moves instead of split-line 20-byte moves; Msg values move
	// through ring buffers and the ready array on every hop.
	_    [7]uint8
	A, B uint32
	C, D uint32
}

// Process is a network participant. Implementations must be deterministic
// functions of their delivered messages to preserve run reproducibility.
type Process interface {
	// OnMessage handles one delivered message. Sends made through ctx are
	// enqueued, not delivered inline.
	OnMessage(ctx *Context, from NodeID, msg Msg)
}

// ErrStepLimit is returned by Run when delivery does not quiesce within the
// step budget — usually a protocol livelock.
var ErrStepLimit = errors.New("sim: step limit exceeded before quiescence")

// linkQueue is one directed link's FIFO tail: a growable ring buffer of
// inline message slots from a fixed sender. Every link lives in the
// network's chunked arena (see linkArena); chunks never move, so a pointer
// to an entry is stable for the network's lifetime and the hot structures
// (node slot tables, the ready list) cache direct pointers instead of
// re-resolving arena indices. Under the legacy scheduler the link's HEAD
// message does not live here: it sits in the ready list's hot array
// (see Network.ready), so the ring only
// ever holds overflow (second and later undelivered messages, rare at
// protocol fan-outs). The sender is constant per queue, so slots carry only
// the message value; the buffer holds no pointers, so the garbage collector
// never scans it and a pop is a plain copy. The struct is exactly 64 bytes —
// one cache line per arena entry.
type linkQueue struct {
	// count/head are the ring cursors a delivery's refill touches; first so
	// they share the entry's only cache line with listed and proc.
	count int32
	head  int32
	// sealed is the sealed-round scheduler's delivery watermark: how many of
	// the ring's head messages were sent in an earlier round and are
	// therefore deliverable this round (count - sealed messages arrived this
	// round and wait for the barrier). The legacy scheduler never reads or
	// writes it; under sealed rounds the ready list is unused and ALL
	// messages, including the head, live in the ring.
	sealed int32
	// listed marks that the link currently owns a ready-list entry (whose
	// hot slot holds its head message). Pending messages on the link =
	// listed(0/1) + count. Legacy scheduler only.
	listed bool
	// from and to are the link's logical address: the fixed sender and the
	// owning (destination) node.
	from NodeID
	to   NodeID
	// proc is the owning node's process, copied at link creation (links are
	// only ever created for registered nodes, and processes are never
	// replaced). Dispatching through it saves the nodes[to] re-index on
	// every delivery.
	proc Process
	buf  []Msg // ring buffer; len is a power of two
}

// push appends m to the ring, growing it with storage taken from rings.
func (q *linkQueue) push(rings *chunks[Msg], m Msg) {
	if int(q.count) == len(q.buf) {
		q.grow(rings)
	}
	q.buf[uint32(q.head+q.count)&uint32(len(q.buf)-1)] = m
	q.count++
}

// grow doubles the ring into a fresh region of rings, unwrapping it to the
// front. Kept out of push so push's frame stays small on the common no-grow
// path.
//
//go:noinline
func (q *linkQueue) grow(rings *chunks[Msg]) {
	grown := rings.take(max(4, 2*len(q.buf)))
	for i := int32(0); i < q.count; i++ {
		grown[i] = q.buf[uint32(q.head+i)&uint32(len(q.buf)-1)]
	}
	q.buf = grown
	q.head = 0
}

func (q *linkQueue) pop() Msg {
	m := q.buf[q.head]
	q.head = (q.head + 1) & int32(len(q.buf)-1)
	q.count--
	return m
}

// First-contact storage: chunks the network owns.
//
// A link, its slot in the receiver's slot table, and its ring buffer are all
// created on first contact between a pair of nodes. Each kind of storage is
// carved from chunks whose length is proportional to the node table's
// length (Network.Add sets it), so a network's first contacts take a number
// of allocations that does not grow with the network. Chunks are kept across
// Reset, like the links that point into them. A region is never handed out
// twice: a grown slot table or ring leaves its old region unused, so a
// slot-table header taken before the growth (playCell's) still reads valid
// entries. The per-node factors are small so that the unused tail of each
// kind's last chunk, which a pooled runner keeps, stays at a few dozen bytes
// per node.
const (
	chunkLinksPerNode = 1 // linkQueue entries per node in a link chunk
	chunkSlotsPerNode = 4 // slot-table entries per node in a slot chunk
	chunkMsgsPerNode  = 2 // ring slots per node in a ring chunk
)

// chunks hands out regions of chunks of T.
type chunks[T any] struct {
	free []T // the unused tail of the current chunk
	size int // length of the next chunk
}

// take returns a fresh zeroed region of k entries, capped at k. When the
// current chunk cannot hold it, the rest of that chunk is left unused and a
// new one of max(k, size) entries is started.
func (c *chunks[T]) take(k int) []T {
	if len(c.free) < k {
		c.free = make([]T, max(k, c.size))
	}
	r := c.free[:k:k]
	c.free = c.free[k:]
	return r
}

// linkArena holds every linkQueue of the network. Its chunks never move, so
// a pointer to an entry stays valid for the network's lifetime: node slot
// tables and the ready list hold direct pointers instead of arena indices
// (an index-addressed ready list paid two dependent loads per hot-path
// resolution; see DESIGN.md). The chunk list is kept so reset can sweep
// every link in allocation order.
type linkArena struct {
	chunks[linkQueue]
	all [][]linkQueue // every chunk, oldest first; the last is in use
}

// alloc hands out one zeroed link.
func (a *linkArena) alloc() *linkQueue {
	if len(a.free) == 0 {
		a.free = make([]linkQueue, max(1, a.size))
		a.all = append(a.all, a.free)
	}
	return &a.take(1)[0]
}

// reset restores every allocated link to its just-created queue state (ring
// forgotten, watermarks cleared) while keeping all storage. One contiguous
// sweep per chunk — the warm-reset path walks packed memory instead of
// hopping across per-node link tables.
func (a *linkArena) reset() {
	for i, ch := range a.all {
		if i == len(a.all)-1 {
			ch = ch[:len(ch)-len(a.free)]
		}
		for j := range ch {
			q := &ch[j]
			q.listed = false
			q.head = 0
			q.count = 0
			q.sealed = 0
		}
	}
}

// readyHead is one hot ready-list entry: a listed link's head message, the
// two ids its dispatch needs, and a direct pointer to the arena-resident
// backing link, packed in 40 bytes. A scheduler pick reads one dense array
// element plus exactly one scattered link entry (ring bookkeeping and the
// owning process) — the head-out-of-line layout that keeps wide ready lists
// cache-resident where direct pointers into 96-byte link records did not.
// The pointer is cached rather than an arena index: entries never move, and
// an index costs two extra dependent loads (chunk table, then chunk) per
// delivery, which profiles showed on the warm monitoring path.
type readyHead struct {
	msg  Msg
	q    *linkQueue
	to   NodeID
	from NodeID
}

// node is one registered process together with its incoming links — the
// mailbox. Keeping the process, link table, and injection cache in one
// struct means a send's validation, slot lookup, and push all walk from a
// single slice element, typically one cache line per destination. The link
// table is append-only, so a link's slot index is stable for the network's
// lifetime; fan-in equals the node's degree in the communication graph, so
// the linear slot scan on send is over a handful of entries.
type node struct {
	proc Process
	// linkQs[s] is the node's s-th incoming link (arena-resident, immobile).
	// The slice is append-only, so a slot index is stable for the network's
	// lifetime. The sender id is read through the pointer (q.from sits in
	// the entry's single cache line, which every consumer touches next
	// anyway) rather than from a parallel id array — dropping the second
	// array keeps the node entry itself to one cache line, which inject
	// waves stride over.
	linkQs []*linkQueue
	// injectQ caches the None (external-injection) link, so full-arena
	// injection waves skip the slot scan entirely; nil means not yet
	// resolved. Arena entries never move, so the cache never invalidates —
	// not even across Reset.
	injectQ *linkQueue
	// recvSlot caches the slot that matched the last in-protocol send to
	// this node. Steady flows (a token circling a ring, a heartbeat chain)
	// hit it every time even when slot 0 belongs to another sender — e.g.
	// an injection link created before the protocol's. A miss falls back to
	// the queueFor scan, which refreshes the cache; slots are stable, so a
	// hit can never be wrong, only stale.
	recvSlot int32
	// pend marks (sealed rounds only) that the node has undelivered arrivals
	// and sits on the network's active or next list — the dedup bit for
	// those lists. Cleared as the node's round opens.
	pend bool
}

// Network owns the processes and undelivered messages. It is single
// threaded: determinism comes free and the package is safe exactly when a
// Network is confined to one goroutine.
type Network struct {
	// rng is the scheduler's generator, held by value: a draw is a direct
	// call on 16 bytes of state, not an interface call.
	rng   rand.PCG
	nodes []node // dense, indexed by NodeID
	// ready is the legacy scheduler's ready list: the exact set of nonempty
	// links, as a dense hot array carrying each listed link's head message,
	// dispatch ids, and backing-link pointer. Listing a link appends one
	// entry; draining one swap-removes it, so the scheduler's random pick
	// touches packed memory and dereferences exactly one scattered link
	// record — the picked one.
	ready     []readyHead
	delivered int64
	sent      int64
	// badSend records the first send to an invalid or unknown node id;
	// surfaced as an error on the next Step (deferred, like the map-era
	// "unknown node" behavior of erroring at delivery time, not send time).
	badSend error
	// ctx is the single delivery context, handed to every OnMessage with
	// only its self field rewritten — one pooled struct instead of one heap
	// allocation per delivered message.
	ctx Context
	// sealed selects the sealed-round scheduler (chosen by Reset, see
	// sealed.go); every entry point dispatches on it. The fields below it
	// are that scheduler's state: active lists the cells holding sealed
	// messages this round, next the cells that turned pending during it,
	// touched the links that received unsealed messages (the barrier seals
	// them), and pick is playCell's ready-set scratch. It draws from rng
	// too.
	sealed  bool
	active  []NodeID
	next    []NodeID
	touched []*linkQueue
	pick    []int32
	// First-contact storage, touched only when a link, slot table or ring
	// is created and by Reset, so it sits after the delivery path's fields
	// rather than between them. links is the chunked arena holding every
	// linkQueue in the network; nodes and the ready list hold direct
	// pointers into it (see linkArena). slots and rings hold the nodes'
	// slot tables and the links' ring buffers.
	links linkArena
	slots chunks[*linkQueue]
	rings chunks[Msg]
}

// NewNetwork creates an empty network on the legacy scheduler with the
// given determinism seed and a node table of nodes entries, allocated once:
// ids below nodes register without growing it, and an id at or past it
// grows the table. It ends in Reset, so a fresh network draws exactly as a
// reset one does.
func NewNetwork(seed int64, nodes int) *Network {
	n := &Network{nodes: make([]node, max(nodes, 0))}
	n.ctx.net = n
	n.Reset(seed, false)
	return n
}

// intn returns a pseudo-random int in [0, k) for k ≥ 1: the 64-bit path of
// math/rand/v2's Rand.IntN over the network's PCG, inlined (a mask for a
// power of two, otherwise Lemire's multiply with rejection), so a draw makes
// no interface call. The two agree draw for draw on 64-bit platforms
// (TestIntnMatchesMathRand, TestReseedMatchesSeed). Like IntN(1), intn(1)
// returns 0 but still consumes one draw, so every legacy delivery costs
// exactly one draw.
func (n *Network) intn(k int) int {
	u := uint64(k)
	if u&(u-1) == 0 { // a power of two, k == 1 included: mask
		return int(n.rng.Uint64() & (u - 1))
	}
	hi, lo := bits.Mul64(n.rng.Uint64(), u)
	if lo < u {
		thresh := -u % u
		for lo < thresh {
			hi, lo = bits.Mul64(n.rng.Uint64(), u)
		}
	}
	return int(hi)
}

// Reset returns the network to its just-constructed state while retaining
// all storage, so a reused network allocates nothing on re-run: registered
// processes stay, every mailbox keeps its link table and each link keeps
// its ring-buffer capacity (pending message slots are simply forgotten —
// they hold no pointers), the ready and round lists are cleared in place,
// the delivery counters and the bad-send latch are zeroed, and the
// generator is seeded with PCG.Seed(uint64(seed), 0). sealed selects the
// scheduler of the next episode: the sealed-round scheduler (sealed.go) or
// the legacy one. Reset is the only place the scheduler changes, and since
// it discards all pending traffic, neither scheduler ever sees the other's
// queued messages. A reset network runs bit-for-bit identically to a
// freshly built one with the same seed, processes and scheduler.
func (n *Network) Reset(seed int64, sealed bool) {
	n.rng.Seed(uint64(seed), 0)
	n.sealed = sealed
	for b := range n.nodes {
		n.nodes[b].pend = false
	}
	n.links.reset()
	n.ready = n.ready[:0]
	n.active = n.active[:0]
	n.next = n.next[:0]
	n.touched = n.touched[:0]
	n.delivered = 0
	n.sent = 0
	n.badSend = nil
}

// Add registers a process under id. An id past the node table grows the
// table, as append grows a slice; a network built for its node count never
// grows it.
func (n *Network) Add(id NodeID, p Process) error {
	if p == nil {
		return fmt.Errorf("sim: nil process for node %d", id)
	}
	if id < 0 {
		return fmt.Errorf("sim: node id %d must be non-negative", id)
	}
	for int(id) >= len(n.nodes) {
		n.nodes = append(n.nodes, node{})
	}
	if n.nodes[id].proc != nil {
		return fmt.Errorf("sim: duplicate node id %d", id)
	}
	n.links.size = chunkLinksPerNode * len(n.nodes)
	n.slots.size = chunkSlotsPerNode * len(n.nodes)
	n.rings.size = chunkMsgsPerNode * len(n.nodes)
	n.nodes[id].proc = p
	return nil
}

// Context is the capability handed to a process while it handles a message.
// It is pooled: the network rewrites one Context per delivery, so it is only
// valid for the duration of the OnMessage call it was passed to — processes
// must not retain it.
type Context struct {
	net  *Network
	self NodeID
}

// Self returns the id of the process being invoked.
func (c *Context) Self() NodeID { return c.self }

// Send enqueues a message from the current process to another node. A send
// to an unregistered id latches a deferred error surfaced by the next Step
// or Run, and the message is dropped; validating here keeps delivery
// infallible.
func (c *Context) Send(to NodeID, msg Msg) {
	n := c.net
	q := n.recvLink(to, c.self)
	if q == nil {
		n.latchBadSend(to)
		return
	}
	if n.sealed {
		n.sealedSend(q, msg)
	} else {
		n.post(q, msg)
	}
	n.sent++
}

// Sender is the minimal sending capability, implemented by *Context;
// protocol engines (package diffuse) depend only on this.
type Sender interface {
	Self() NodeID
	Send(to NodeID, msg Msg)
}

var _ Sender = (*Context)(nil)

// known reports whether id addresses a registered process.
func (n *Network) known(id NodeID) bool {
	return id >= 0 && int(id) < len(n.nodes) && n.nodes[id].proc != nil
}

// queueFor resolves (to, from) to the link's slot and entry, appending the
// link on first contact. The scan walks the node's slot table — in-degree
// entries, a handful per node — and callers cache the slot or entry
// pointer, so it stays off hot paths.
func (n *Network) queueFor(to, from NodeID) (int32, *linkQueue) {
	mb := &n.nodes[to]
	for s, q := range mb.linkQs {
		if q.from == from {
			return int32(s), q
		}
	}
	return n.addLink(to, from)
}

// addLink appends a link on first contact between a pair — once per pair, so
// kept out of queueFor to leave the hot scan within the inlining budget. A
// full slot table doubles into a fresh region of the slot chunks; the first
// region is one cache line of eight slots.
//
//go:noinline
func (n *Network) addLink(to, from NodeID) (int32, *linkQueue) {
	mb := &n.nodes[to]
	q := n.links.alloc()
	q.from = from
	q.to = to
	q.proc = mb.proc
	slot := int32(len(mb.linkQs))
	if len(mb.linkQs) == cap(mb.linkQs) {
		grown := n.slots.take(max(8, 2*cap(mb.linkQs)))
		mb.linkQs = grown[:copy(grown, mb.linkQs)]
	}
	mb.linkQs = append(mb.linkQs, q)
	return slot, q
}

// recvLink resolves the link from -> to for a handler's send, or returns nil
// when to is not a registered node. Most nodes hear overwhelmingly from one
// neighbour, so to's recvSlot cache is the dominant path; an existing link
// proves its owner was validated when the link was created, so a hit needs
// only the bounds test, not the proc load.
func (n *Network) recvLink(to, from NodeID) *linkQueue {
	if uint(int(to)) >= uint(len(n.nodes)) {
		return nil
	}
	mb := &n.nodes[to]
	if s := mb.recvSlot; int(s) < len(mb.linkQs) && mb.linkQs[s].from == from {
		return mb.linkQs[s]
	}
	if mb.proc == nil {
		return nil
	}
	s, q := n.queueFor(to, from)
	mb.recvSlot = s
	return q
}

// Inject delivers an external event into a node's input buffer, e.g. a job
// arrival. from is recorded as None. Injecting to an id with no registered
// process latches a deferred error surfaced by the next Step — the same
// discipline as an in-protocol send to an invalid id — instead of silently
// enqueuing a message that errors only if and when the scheduler draws it.
// The node's injection link is cached, so full-arena waves skip the slot
// scan.
func (n *Network) Inject(to NodeID, msg Msg) {
	if !n.known(to) {
		if n.badSend == nil {
			n.badSend = fmt.Errorf("sim: inject to unknown node %d", to)
		}
		return
	}
	mb := &n.nodes[to]
	if mb.injectQ == nil {
		_, mb.injectQ = n.queueFor(to, None)
	}
	if n.sealed {
		n.sealedInject(mb.injectQ, msg)
	} else {
		n.post(mb.injectQ, msg)
	}
	n.sent++
}

// post queues msg on link q under the legacy scheduler, for sends and
// injections alike. The link's first pending message becomes its head,
// written straight into a new ready-list entry's hot slot without touching
// the ring — the dominant shape at protocol fan-outs; later messages wait
// in the ring behind it.
func (n *Network) post(q *linkQueue, msg Msg) {
	if q.listed {
		q.push(&n.rings, msg)
		return
	}
	q.listed = true
	// Reserve the entry and fill it in place: appending a composite literal
	// materializes the 40-byte entry on the stack and copies it over, which
	// is measurable at injection-wave rates.
	if len(n.ready) == cap(n.ready) {
		n.ready = append(n.ready, readyHead{})
	} else {
		n.ready = n.ready[:len(n.ready)+1]
	}
	h := &n.ready[len(n.ready)-1]
	h.msg = msg
	h.q = q
	h.to = q.to
	h.from = q.from
}

// latchBadSend records the first send to an invalid or unknown node id.
// Kept out of Send so Send's frame carries no fmt vararg slots.
//
//go:noinline
func (n *Network) latchBadSend(to NodeID) {
	if n.badSend == nil {
		if to < 0 {
			n.badSend = fmt.Errorf("sim: message to invalid node %d", to)
		} else {
			n.badSend = fmt.Errorf("sim: message to unknown node %d", to)
		}
	}
}

// stepLimitErr builds Run's budget error. Kept out of Run so the delivery
// loop's frame carries no fmt vararg slots.
//
//go:noinline
func stepLimitErr(maxSteps int64) error {
	return fmt.Errorf("%w (after %d deliveries)", ErrStepLimit, maxSteps)
}

// deliver pops the head of ready entry i and hands it to the destination
// process. Exact ready-list maintenance: a link enters the list when its
// queue turns nonempty and leaves here, at its known index, the moment it
// drains — no stale entries, no compaction scans. Destinations were
// validated when the message was enqueued, so delivery cannot fail.
func (n *Network) deliver(i int) {
	h := &n.ready[i]
	q := h.q
	m := h.msg
	to, from := h.to, h.from
	if q.count > 0 {
		// Refill: promote the ring's head into the entry's hot slot; the
		// entry keeps its position, preserving pick order.
		h.msg = q.pop()
	} else {
		q.listed = false
		last := len(n.ready) - 1
		n.ready[i] = n.ready[last]
		n.ready = n.ready[:last]
	}
	n.delivered++
	n.ctx.self = to
	q.proc.OnMessage(&n.ctx, from, m)
}

// advance plays one scheduling unit of a network with pending messages:
// under the legacy scheduler one delivery from a pseudo-randomly picked
// ready link, under sealed rounds one full round. It holds the legacy
// scheduler's only pick site. Every legacy delivery consumes exactly one
// seeded draw, even when a single link is ready and the pick is forced.
func (n *Network) advance() {
	if n.sealed {
		n.playRound()
		return
	}
	n.deliver(n.intn(len(n.ready)))
}

// Step plays one scheduling unit — one message under the legacy scheduler,
// one round under sealed rounds — and reports whether it delivered
// anything. A bad send latched during the unit surfaces on the next Step or
// Run.
func (n *Network) Step() (bool, error) {
	if n.badSend != nil {
		return false, n.badSend
	}
	if n.Pending() == 0 {
		return false, nil
	}
	n.advance()
	return true, nil
}

// Run plays scheduling units until the network quiesces (no pending
// messages) or maxSteps messages have been delivered, in which case
// ErrStepLimit is returned. The budget is checked between units, so under
// sealed rounds a round always completes and the limit surfaces at the next
// boundary; every round delivers at least one message, so a livelock still
// stops within maxSteps rounds.
func (n *Network) Run(maxSteps int64) error {
	start := n.delivered
	for {
		if n.badSend != nil {
			return n.badSend
		}
		if n.Pending() == 0 {
			return nil
		}
		if n.delivered-start >= maxSteps {
			return stepLimitErr(maxSteps)
		}
		n.advance()
	}
}

// Delivered returns the number of messages delivered so far — the message
// complexity metric for experiment E8.
func (n *Network) Delivered() int64 { return n.delivered }

// Pending returns the number of undelivered messages.
func (n *Network) Pending() int64 { return n.sent - n.delivered }
