package online

import (
	"fmt"

	"repro/internal/diffuse"
	"repro/internal/grid"
	"repro/internal/sim"
)

// WorkState is the working state S1 of thesis Section 3.2.1, extended with
// the Dead state of Section 3.2.5 (a broken vehicle that can no longer
// process jobs but still relays messages).
type WorkState uint8

// Working states.
const (
	Idle WorkState = iota + 1
	Active
	Done
	Dead
)

// String implements fmt.Stringer.
func (s WorkState) String() string {
	switch s {
	case Idle:
		return "idle"
	case Active:
		return "active"
	case Done:
		return "done"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("WorkState(%d)", int(s))
	}
}

// Message kinds owned by the online layer (range 16..31 of the sim.Msg kind
// space; 1..15 belongs to package diffuse). Operand layout per kind:
//
//	msgServeJob       — A: arena index of the job position (the vehicle
//	                    decodes it through Arena.PointAt)
//	msgHeartbeatRound — no operands; tells an active vehicle to emit its
//	                    Existing beacon
//	msgExisting       — A: pair id; the Section 3.2.5 liveness beacon from
//	                    that pair's active vehicle to its watcher
//	msgCheckRound     — no operands; tells a watcher to act on heartbeats
//	                    missed this round
//	msgEvidence       — A: pair id; the customer complaint that the pair's
//	                    last job went unserved, delivered to the pair's
//	                    watcher. Unlike the forgeable Existing beacon this is
//	                    evidence of *absent served work*, which a Byzantine
//	                    casualty cannot counterfeit — the watcher rescues on
//	                    it even while beacons keep arriving.
const (
	msgServeJob uint8 = iota + 16
	msgHeartbeatRound
	msgExisting
	msgCheckRound
	msgEvidence
)

// serveCost is the worst-case energy for a *uniform* vehicle to process one
// job: walk at most distance 1 to the partner vertex plus 1 unit of service
// (Section 3.2.2). Classed vehicles use reserveCost, which reduces to this
// constant at the default multipliers.
const serveCost = 2.0

// vehicle is one depot's vehicle: a sim.Process whose node id equals its
// home cell's arena index, and the diffuse.Host of its own search engine.
// Its position changes when it replaces a done vehicle; its network identity
// does not (the radio stays with the robot). The fields are ordered so that
// they pack into 160 bytes, 256 of which fill a 16x16 arena's slab to the
// byte.
type vehicle struct {
	r    *Runner
	id   sim.NodeID
	home grid.Point
	pos  grid.Point

	// ds is the Phase I/II search engine's protocol state, held by value.
	// The vehicle passes itself to it as its host, answering Neighbors with
	// the partition's communication row for this cell and Fanout with the
	// episode's GossipFanout, so one engine serves both SearchDiffuse
	// (fanout 0) and SearchGossip, and a pooled runner can flip protocols
	// per ResetEpisode.
	ds diffuse.Engine

	used   float64
	pairID int // pair currently served (valid when Active) or home pair

	// longevity is the Chapter 4 breakdown fraction p_i: the vehicle dies
	// once used >= longevity * capacity. 1 means it never breaks.
	longevity float64
	// stepCost / jobCost / capMult are the densified VehicleClass
	// multipliers (all exactly 1.0 for the uniform fleet, which keeps the
	// classed arithmetic bit-identical to the historical constants).
	stepCost float64
	jobCost  float64
	capMult  float64
	// searchPair is the pair the in-flight search is recruiting for (the
	// vehicle may initiate on behalf of a watched pair, not only its own);
	// searchDest is the arena index of where the recruit will be sent, the
	// word the Phase II payload carries.
	searchPair int
	searchDest uint32

	// reason is the last stateReason this vehicle built and reasonState the
	// state it names, so a vehicle that keeps losing jobs in one state
	// builds its text once. The text depends only on the home cell, which
	// never changes, so the cache outlives Reset and ResetEpisode.
	reason      string
	reasonState WorkState

	state WorkState
	// failInitiate simulates Section 3.2.5 scenario 2: on exhaustion the
	// vehicle silently fails to start its replacement search.
	failInitiate bool
	// byzantine marks the FailureModel's lying casualties: once dead, the
	// vehicle keeps emitting Existing beacons as if it were healthy.
	byzantine bool
	// heard and accused are the watcher's state for this round: a beacon
	// (msgExisting) and a customer complaint (msgEvidence) arrived for the
	// one pair it watches. Both messages are addressed to
	// pairActive[WatcherPair(P)], whose pairID is always WatcherPair(P), so
	// each names WatchedPair(pairID). Beacon presence clears nothing here —
	// evidence outranks beacons.
	heard, accused bool
}

var (
	_ sim.Process  = (*vehicle)(nil)
	_ diffuse.Host = (*vehicle)(nil)
)

// applyClass densifies the vehicle's fleet class into flat multipliers (the
// defaults when no fleet is configured). Called by Runner.arm once per
// episode.
func (v *vehicle) applyClass(f *Fleet, part *Partition) {
	v.stepCost, v.jobCost, v.capMult = 1, 1, 1
	if f == nil {
		return
	}
	c := f.classAt(part, v.home, part.PairAt(int64(v.id)))
	v.stepCost = c.stepCost()
	v.jobCost = c.jobCost()
	v.capMult = c.capMult()
}

// capacity is this vehicle's energy budget: the episode capacity scaled by
// its class multiplier.
func (v *vehicle) capacity() float64 { return v.r.opts.Capacity * v.capMult }

// reserveCost is the worst-case energy this vehicle needs for one more job:
// one lattice step plus one service at its class rates (= serveCost for the
// uniform fleet).
func (v *vehicle) reserveCost() float64 { return v.stepCost + v.jobCost }

func (v *vehicle) OnMessage(ctx *sim.Context, from sim.NodeID, msg sim.Msg) {
	if v.ds.Handle(v, ctx, from, msg) {
		return
	}
	switch msg.Kind {
	case msgServeJob:
		v.onServe(ctx, v.r.opts.Arena.PointAt(int64(msg.A)))
	case msgHeartbeatRound:
		v.onHeartbeat(ctx)
	case msgExisting:
		v.heard = true
	case msgCheckRound:
		v.onCheck(ctx)
	case msgEvidence:
		v.accused = true
	default:
		v.r.failf("vehicle %v: unexpected message kind %d", v.home, msg.Kind)
	}
}

// onServe processes one job arrival at pos (which is within this vehicle's
// pair, so at distance at most 1 from its position).
func (v *vehicle) onServe(ctx *sim.Context, pos grid.Point) {
	if v.state != Active {
		if v.reasonState != v.state {
			v.reasonState, v.reason = v.state, stateReason(v.home, v.state)
		}
		v.r.recordFailure(pos, v.reason)
		return
	}
	walk := float64(grid.Manhattan(v.pos, pos)) * v.stepCost
	cost := walk + v.jobCost
	if v.used+cost > v.capacity() {
		v.r.recordFailure(pos, energyReason(v.home, v.used))
		return
	}
	v.used += cost
	v.pos = pos
	v.r.res.Served++
	v.r.noteEnergy(v.used)
	v.r.emit(Event{Kind: EventServe, Vehicle: v.home, Pos: pos, Energy: v.used})
	// Chapter 4 breakdown: the vehicle dies the moment a fraction p of its
	// capacity is spent. A dead vehicle cannot initiate its own
	// replacement — only the monitoring ring can catch this.
	if v.breaksNow() {
		v.state = Dead
		v.r.emit(Event{Kind: EventDead, Vehicle: v.home, Pos: v.pos, Energy: v.used,
			Longevity: v.longevity, Cause: CauseServe})
		return
	}
	// Exhaustion check: if the next job (worst case cost reserveCost) cannot
	// be served, the vehicle is done and must recruit a replacement now.
	if v.capacity()-v.used < v.reserveCost() {
		v.becomeDone(ctx)
	}
}

// breaksNow reports whether the Chapter 4 longevity threshold has been hit.
func (v *vehicle) breaksNow() bool {
	return v.longevity < 1 && v.used >= v.longevity*v.capacity()-1e-9
}

// untilBreak returns the energy this vehicle can still spend before its
// longevity threshold (its full budget when it never breaks).
func (v *vehicle) untilBreak() float64 {
	limit := v.capacity()
	if v.longevity < 1 {
		limit = v.longevity * v.capacity()
	}
	return limit - v.used
}

func (v *vehicle) becomeDone(ctx *sim.Context) {
	v.state = Done
	v.r.emit(Event{Kind: EventDone, Vehicle: v.home, Pos: v.pos, Energy: v.used})
	if v.failInitiate {
		return // scenario 2: the monitoring ring must catch this
	}
	v.startReplacementSearch(ctx, v.pairID, v.pos)
}

// startReplacementSearch launches Phase I to recruit an idle vehicle for
// pair pairID, directing the recruit to dest.
func (v *vehicle) startReplacementSearch(ctx sim.Sender, pairID int, dest grid.Point) {
	if v.r.pendingReplace[pairID] {
		return
	}
	v.r.pendingReplace[pairID] = true
	v.searchPair = pairID
	v.r.res.Searches++
	v.searchDest = uint32(v.r.opts.Arena.Index(dest))
	v.r.emit(Event{Kind: EventSearch, Vehicle: v.home, Pos: dest, Energy: v.used, Pair: pairID})
	v.ds.StartSearch(v, ctx)
}

// Neighbors implements diffuse.Host: the partition's communication row for
// this vehicle's home cell.
func (v *vehicle) Neighbors() []sim.NodeID { return v.r.part.commRow(v.id) }

// Fanout implements diffuse.Host: the episode's GossipFanout, one value for
// every vehicle (0, a full flood, unless the search protocol is
// SearchGossip).
func (v *vehicle) Fanout() int { return v.r.opts.GossipFanout }

// IsCandidate implements diffuse.Host: an idle vehicle that can afford one
// more job before it breaks answers a search.
func (v *vehicle) IsCandidate() bool {
	return v.state == Idle && v.untilBreak() >= v.reserveCost()
}

// OnComplete implements diffuse.Host: the replacement search this vehicle
// initiated terminated. On success Phase II sends the recruit a payload
// whose A word is the destination's arena index and whose B word is the
// pair to take over.
func (v *vehicle) OnComplete(ctx sim.Sender, seq int, found bool) {
	pairID := v.searchPair
	if !found {
		v.r.pendingReplace[pairID] = false
		v.r.res.SearchFailures++
		v.r.emit(Event{Kind: EventSearchFail, Vehicle: v.home,
			Pos: v.r.opts.Arena.PointAt(int64(v.searchDest)), Energy: v.used, Pair: pairID})
		return
	}
	if err := v.ds.ForwardPayload(ctx, seq, diffuse.Payload{A: v.searchDest, B: uint32(pairID)}); err != nil {
		v.r.failf("vehicle %v: forward payload: %v", v.home, err)
	}
}

// OnPayload implements diffuse.Host: a Phase II move order reached this
// recruit. It relocates to the order's destination and takes over service of
// its pair.
func (v *vehicle) OnPayload(ctx sim.Sender, order diffuse.Payload) {
	dest, pairID := v.r.opts.Arena.PointAt(int64(order.A)), int(order.B)
	if v.state != Idle {
		// The protocol guarantees candidates are idle at recruitment time;
		// a double recruit would be a bug, surface it.
		v.r.failf("vehicle %v: move order while %v", v.home, v.state)
		return
	}
	walk := float64(grid.Manhattan(v.pos, dest)) * v.stepCost
	if v.used+walk > v.capacity() {
		v.r.recordFailure(dest, moveReason(v.home, walk))
		v.r.pendingReplace[pairID] = false
		return
	}
	v.used += walk
	v.r.noteEnergy(v.used)
	v.pos = dest
	v.state = Active
	v.pairID = pairID
	v.r.pairActive[pairID] = v.id
	v.r.pendingReplace[pairID] = false
	v.r.res.Replacements++
	v.r.noteRestored(pairID)
	v.r.emit(Event{Kind: EventMove, Vehicle: v.home, Pos: dest, Energy: v.used, Pair: pairID})
	if v.breaksNow() {
		v.state = Dead
		v.r.emit(Event{Kind: EventDead, Vehicle: v.home, Pos: v.pos, Energy: v.used,
			Longevity: v.longevity, Cause: CauseArrival})
		return
	}
	// If the move itself nearly drained the recruit, chain a further
	// replacement immediately.
	if v.capacity()-v.used < v.reserveCost() {
		v.state = Done
		if !v.failInitiate {
			v.startReplacementSearch(ctx, v.pairID, v.pos)
		}
	}
}

// onHeartbeat emits the Existing beacon if this vehicle is the live active
// server of its pair (Section 3.2.5) — or a Byzantine casualty still
// registered for its pair, which beacons exactly as if it were healthy.
// Once a rescue installs a replacement the liar stops matching
// pairActive and falls silent, so the lie cannot outlive its unmasking.
func (v *vehicle) onHeartbeat(ctx *sim.Context) {
	lying := v.byzantine && v.state == Dead
	if (v.state != Active && !lying) || v.r.pairActive[v.pairID] != v.id {
		return
	}
	watcherPair := v.r.part.WatcherPair(v.pairID)
	watcher := v.r.pairActive[watcherPair]
	if watcher == v.id {
		return
	}
	ctx.Send(watcher, sim.Msg{Kind: msgExisting, A: uint32(v.pairID)})
}

// onCheck inspects the heartbeats and evidence gathered since the last round
// and starts replacement searches for watched pairs that are provably in
// trouble: silent pairs (the beacon timeout of Section 3.2.5) and pairs
// whose beacons kept arriving while a customer complaint proves no work was
// served — the Byzantine case, where beacon presence alone would let a
// lying casualty hold its pair hostage forever.
func (v *vehicle) onCheck(ctx *sim.Context) {
	heard, accused := v.heard, v.accused
	v.heard, v.accused = false, false
	if v.state != Active || v.r.pairActive[v.pairID] != v.id {
		return
	}
	// The ring is "pair i is watched by pair next(i)", so this watcher's
	// single watched pair is its ring predecessor (a one-pair cube watches
	// itself; nothing to do).
	if watched := v.r.part.WatchedPair(v.pairID); watched != v.pairID &&
		!v.r.pendingReplace[watched] {
		switch {
		case !heard:
			// Watched pair went silent: recruit a replacement on its behalf,
			// directed at the pair's canonical service position.
			v.r.res.MonitorRescues++
			v.r.emit(Event{Kind: EventRescue, Vehicle: v.home,
				Pos: v.r.part.Pairs()[watched].ServicePos(), Energy: v.used,
				Pair: watched, Cause: CauseSilent})
			v.startReplacementSearch(ctx, watched, v.r.part.Pairs()[watched].ServicePos())
		case accused:
			// Beacons kept arriving but a job went unserved: evidence beats
			// the (possibly forged) beacon.
			v.r.res.EvidenceRescues++
			v.r.emit(Event{Kind: EventRescue, Vehicle: v.home,
				Pos: v.r.part.Pairs()[watched].ServicePos(), Energy: v.used,
				Pair: watched, Cause: CauseEvidence})
			v.startReplacementSearch(ctx, watched, v.r.part.Pairs()[watched].ServicePos())
		}
	}
}
