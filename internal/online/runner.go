package online

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/demand"
	"repro/internal/grid"
	"repro/internal/sim"
)

// Options configures an online run.
type Options struct {
	// Arena is the finite simulation grid.
	Arena *grid.Grid
	// CubeSide is the partition granularity, normally ceil(omega_c) of the
	// (adversary's) demand — part of the strategy per Theorem 1.4.2.
	CubeSide int
	// Partition, when set, is a prebuilt geometry to reuse instead of
	// constructing one: it must have been built for this exact Arena (and
	// CubeSide, when that is nonzero). Partitions are immutable, so one can
	// be shared by any number of runners, including concurrent search
	// workers — the capacity searches build one per sweep and every probe
	// reuses it.
	Partition *Partition
	// Capacity is the per-vehicle energy budget W being tested.
	Capacity float64
	// Seed drives the message-delay randomness.
	Seed int64
	// Failure, when set, is the episode's failure model: the Section 3.2.5
	// crash scenarios, the Chapter 4 breakdown fractions, and the Byzantine
	// mode. Nil means no vehicle fails.
	Failure *FailureModel
	// Fleet, when set, makes the fleet heterogeneous: per-vehicle
	// speed/energy/capacity classes with partition-aware assignment. Nil
	// means the thesis' uniform fleet (and bit-identical behavior to it).
	Fleet *Fleet
	// Search selects the Phase I dissemination protocol: SearchDiffuse (the
	// default Dijkstra-Scholten diffusing computation) or SearchGossip (the
	// fanout-limited gossip alternative). Selectable per episode on pooled
	// runners via ResetEpisode.
	Search SearchProtocol
	// GossipFanout bounds per-node forwarding when Search == SearchGossip:
	// each node forwards the search query to at most this many
	// deterministically chosen neighbors. 0 means full flood
	// (message-for-message identical to the diffusing computation); setting
	// it without SearchGossip is an error.
	GossipFanout int
	// Monitoring enables the Section 3.2.5 heartbeat ring. Without it,
	// scenario 2/3 failures go unrepaired.
	Monitoring bool
	// MaxSteps bounds message deliveries per quiescence run (0 = default).
	MaxSteps int64
	// SearchWorkers sets the number of concurrent feasibility probes used
	// by capacity searches (MinCapacityParallel / cmvrp.MeasureWon): each
	// probe is an independent fixed-seed run, so values >= 2 race them on
	// a worker pool. The search's answer depends on the probe grid and
	// hence on this count, so MeasureWon treats anything <= 1 as the
	// serial bisection — reproducible regardless of host core count —
	// while MinCapacityParallel maps <= 0 to runtime.NumCPU(). A single
	// Run ignores this field.
	SearchWorkers int
	// Tracer, when set, receives structured simulation events (serves,
	// exhaustions, searches, moves, rescues, failures).
	Tracer Tracer
	// SimShards selects the message scheduler. 0 (the default) is the
	// legacy single-stream scheduler every historical golden trace pins.
	// Any value >= 1 selects the sealed-round scheduler, and every such
	// value gives the identical episode: rounds run on the calling
	// goroutine, so the number has no further effect. The two schedulers
	// realize different — equally valid — deterministic delivery
	// schedules, so results differ between SimShards = 0 and
	// SimShards >= 1.
	SimShards int
}

// Failure records one lost job (Reason "vehicle ...") or one Phase II
// relocation its recruit could not afford (Reason "recruit ...", Pos the
// destination).
type Failure struct {
	Pos    grid.Point
	Reason string
}

// Result aggregates a run's outcome and cost metrics.
type Result struct {
	// Served counts successfully processed jobs.
	Served int64
	// Failures lists, in the order they happened, the jobs that could not
	// be served and the Phase II relocations whose recruit could not afford
	// the walk. A failed relocation is not a lost arrival: the job that
	// exhausted the server was served, so Served + len(Failures) exceeds
	// the number of arrivals by the relocation failures. Empty Failures
	// means the capacity was sufficient for this sequence.
	Failures []Failure
	// MaxEnergy is the largest energy any vehicle consumed (the empirical
	// capacity requirement of this run).
	MaxEnergy float64
	// Messages is the total number of delivered protocol messages.
	Messages int64
	// Replacements counts Phase II relocations.
	Replacements int64
	// Searches and SearchFailures count Phase I computations and the ones
	// that found no idle candidate.
	Searches       int64
	SearchFailures int64
	// MonitorRescues counts replacement searches initiated by watchers whose
	// watched pair went silent (the beacon-timeout path of Section 3.2.5).
	MonitorRescues int64
	// EvidenceRescues counts replacement searches initiated by watchers on
	// the evidence channel: beacons kept arriving but a customer complaint
	// proved no work was served — the path that unmasks Byzantine
	// casualties, which never go silent.
	EvidenceRescues int64
	// ReplaceLatencySum / ReplaceLatencyCount measure replacement latency:
	// for every pair whose service lapsed (an arrival went unserved) and
	// was later restored by a Phase II move, the number of arrivals from
	// the first lost job through the restoring arrival, inclusive. Proactive
	// replacements (recruited before any job was lost) contribute nothing.
	ReplaceLatencySum   int64
	ReplaceLatencyCount int64
}

// MeanReplaceLatency returns the average arrivals-to-restore over lapsed
// pairs (0 when no lapse was ever repaired).
func (r *Result) MeanReplaceLatency() float64 {
	if r.ReplaceLatencyCount == 0 {
		return 0
	}
	return float64(r.ReplaceLatencySum) / float64(r.ReplaceLatencyCount)
}

// OK reports whether the run recorded no failure: every job was served and
// every Phase II relocation was affordable. The capacity searches treat a
// failed relocation as infeasible, like a lost job.
func (r *Result) OK() bool { return len(r.Failures) == 0 }

// deadEvent is one densified FailureModel.DeadBeforeArrival entry: kill the
// vehicle with node id (= arena index) right before arrival `at` is
// processed. id < 0 marks a cell outside the arena — surfaced as an error
// when it fires, to match the lazy validation of the map-keyed original.
type deadEvent struct {
	at   int
	id   sim.NodeID
	home grid.Point
}

// Runner executes one online simulation.
type Runner struct {
	opts Options
	part *Partition
	net  *sim.Network

	// vehicles is one slab indexed by arena index (= sim.NodeID). It is
	// never resized: the network and every engine's Host point into it.
	vehicles   []vehicle
	pairActive []sim.NodeID // pair -> node currently responsible
	// pendingReplace guards against duplicate concurrent searches per pair.
	pendingReplace []bool
	// deadEvents is FailureModel.DeadBeforeArrival densified and sorted by
	// arrival index; nextDead is the cursor into it.
	deadEvents []deadEvent
	nextDead   int

	// evidence enables the customer-complaint channel (set iff the failure
	// model has Byzantine cells, so legacy episodes inject nothing new).
	evidence bool
	// pairDownAt tracks replacement latency: the arrival index at which a
	// pair first lost a job (-1 while healthy), settled by noteRestored.
	pairDownAt []int

	// res accumulates the episode's outcome; Run returns a copy with
	// Messages and Failures filled in. failures collects the episode's
	// Failure list in storage kept across episodes; Run hands out an
	// exact-size copy.
	res            Result
	failures       []Failure
	fatal          error
	currentArrival int
	// consumed latches after Run starts: the arrival cursor, counters, and
	// vehicle states are spent, so a second Run without Reset would silently
	// continue from mid-episode state. Reset re-arms the runner.
	consumed bool
}

// ErrRunnerUsed is returned by Run when the runner has already played a
// sequence and has not been Reset since.
var ErrRunnerUsed = errors.New("online: Runner already ran; call Reset before running again")

// defaultMaxSteps is the per-quiescence delivery budget when Options.MaxSteps
// is zero.
const defaultMaxSteps = 50_000_000

func (r *Runner) recordFailure(pos grid.Point, reason string) {
	r.failures = append(r.failures, Failure{Pos: pos, Reason: reason})
	r.emit(Event{Kind: EventFailure, Vehicle: pos, Pos: pos, Reason: reason})
}

// The three Failure.Reason texts, each built in one allocation. They are
// byte-identical to the fmt forms quoted on each function, so traces and
// every hash of a Result stay unchanged.

// reasonLen sizes the stack buffer the reasons are built in: the longest
// prefix, a MaxDim point and a shortest-form float fit with room to spare.
// A longer text (a huge energy in 'f' form) still renders correctly, at the
// cost of one more allocation.
const reasonLen = 128

// stateReason is fmt.Sprintf("vehicle %v in state %v", home, state).
func stateReason(home grid.Point, state WorkState) string {
	var buf [reasonLen]byte
	b := append(buf[:0], "vehicle "...)
	b = home.Append(b)
	b = append(b, " in state "...)
	b = append(b, state.String()...)
	return string(b)
}

// energyReason is fmt.Sprintf("vehicle %v out of energy (%.1f used)", home, used).
func energyReason(home grid.Point, used float64) string {
	var buf [reasonLen]byte
	b := append(buf[:0], "vehicle "...)
	b = home.Append(b)
	b = append(b, " out of energy ("...)
	b = strconv.AppendFloat(b, used, 'f', 1, 64)
	b = append(b, " used)"...)
	return string(b)
}

// moveReason is fmt.Sprintf("recruit %v cannot afford move of %v", home, walk).
func moveReason(home grid.Point, walk float64) string {
	var buf [reasonLen]byte
	b := append(buf[:0], "recruit "...)
	b = home.Append(b)
	b = append(b, " cannot afford move of "...)
	b = strconv.AppendFloat(b, walk, 'g', -1, 64)
	return string(b)
}

func (r *Runner) noteEnergy(e float64) {
	if e > r.res.MaxEnergy {
		r.res.MaxEnergy = e
	}
}

func (r *Runner) failf(format string, args ...interface{}) {
	if r.fatal == nil {
		r.fatal = fmt.Errorf(format, args...)
	}
}

// checkCapacity rejects an episode capacity that is not positive and
// finite. NaN and +Inf would make every energy test (used+cost > capacity)
// false, giving every vehicle unlimited energy.
func checkCapacity(c float64) error {
	if !(c > 0) || math.IsInf(c, 1) {
		return fmt.Errorf("online: capacity %v must be positive and finite", c)
	}
	return nil
}

// NewRunner builds the geometry of a run — the partition (or the prebuilt
// Options.Partition, checked against Arena and CubeSide), one vehicle per
// arena cell in a single slab, and the network — and then arms the first
// episode with the same arm that Reset and ResetEpisode end in. Each pair
// starts with its black vertex's vehicle active and the white one idle.
func NewRunner(opts Options) (*Runner, error) {
	if opts.Arena == nil {
		return nil, errors.New("online: Arena is required")
	}
	part := opts.Partition
	if part == nil {
		var err error
		if part, err = NewPartition(opts.Arena, opts.CubeSide); err != nil {
			return nil, err
		}
	} else if part.arena != opts.Arena {
		return nil, errors.New("online: Options.Partition was built for a different arena")
	} else if opts.CubeSide != 0 && opts.CubeSide != part.cubeSide {
		return nil, fmt.Errorf("online: Options.Partition has cube side %d, CubeSide asks for %d",
			part.cubeSide, opts.CubeSide)
	}
	pairs := len(part.Pairs())
	r := &Runner{
		part:           part,
		net:            sim.NewNetwork(opts.Seed),
		vehicles:       make([]vehicle, opts.Arena.Len()),
		pairActive:     make([]sim.NodeID, pairs),
		pendingReplace: make([]bool, pairs),
		pairDownAt:     make([]int, pairs),
	}
	for idx := range r.vehicles {
		v := &r.vehicles[idx]
		v.r, v.id, v.home = r, sim.NodeID(idx), opts.Arena.PointAt(int64(idx))
		if part.pairIdx[idx] < 0 {
			return nil, fmt.Errorf("online: cell %v not covered by partition", v.home)
		}
		// The engine floods the partition's own neighbor row.
		v.ds.Host = v
		v.ds.Neighbors = part.commIdx[idx]
		if err := r.net.Add(v.id, v); err != nil {
			return nil, err
		}
	}
	if err := r.arm(opts); err != nil {
		return nil, err
	}
	return r, nil
}

// arm validates opts and then re-arms every episode-scoped piece of the
// runner for it: it densifies the failure model and the fleet into vehicle
// fields and the dead-event list, sets each engine's fanout, resets the
// network, and restores the initial state — vehicle positions, working
// states, energy, engines, the pair-ownership tables, the dead-event cursor
// and all counters. NewRunner, Reset and ResetEpisode all end here, which is
// what makes a reset run bit-for-bit identical to a fresh one. Nothing
// changes before validation passes, so a rejected episode leaves the runner
// as it was. The geometry is the callers' to check.
func (r *Runner) arm(opts Options) error {
	if err := checkCapacity(opts.Capacity); err != nil {
		return err
	}
	// Unknown cells, bad multipliers and malformed fanouts are rejected
	// here, matching the unknown-cell error DeadBeforeArrival surfaces when
	// its event fires.
	model, err := opts.validateExtensions(opts.Arena)
	if err != nil {
		return err
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = defaultMaxSteps
	}
	r.opts = opts
	r.deadEvents = densifyDeadEvents(r.deadEvents, opts.Arena, model.DeadBeforeArrival)
	r.evidence = len(model.Byzantine) > 0
	r.net.Reset(opts.Seed)
	// Reset left nothing pending, so switching the scheduler cannot fail.
	if err := r.net.SetSealed(opts.SimShards > 0); err != nil {
		return err
	}
	for i := range r.vehicles {
		v := &r.vehicles[i]
		v.longevity = 1
		if p, ok := model.Longevity[v.home]; ok {
			v.longevity = p
		}
		v.failInitiate = model.FailInitiate[v.home]
		v.byzantine = model.Byzantine[v.home]
		v.applyClass(opts.Fleet, r.part)
		v.ds.Fanout = opts.GossipFanout
		v.ds.Reset()
		v.pos = v.home
		v.used = 0
		v.pairID = r.part.PairAt(int64(v.id))
		v.state = Idle
		if v.longevity == 0 {
			v.state = Dead // broken from the start (p_i = 0)
		}
		v.searchPair = 0
		v.searchDest = grid.Point{}
		// Clear, don't drop: an empty map is indistinguishable from the nil
		// one a fresh vehicle starts with, and keeping the buckets makes
		// warm monitored episodes allocation-free.
		clear(v.heard)
		clear(v.complaints)
	}
	// Activate the service vertex of every pair; fall back to the white
	// partner when the black vertex's vehicle is broken from the start.
	for i, pr := range r.part.Pairs() {
		id := sim.NodeID(r.opts.Arena.Index(pr.ServicePos()))
		if r.vehicles[id].state == Dead && !pr.Single {
			if alt := sim.NodeID(r.opts.Arena.Index(pr.Cells[1])); r.vehicles[alt].state != Dead {
				id = alt
			}
		}
		if r.vehicles[id].state != Dead {
			r.vehicles[id].state = Active
		}
		r.pairActive[i] = id
		r.pendingReplace[i] = false
		r.pairDownAt[i] = -1
	}
	r.nextDead = 0
	// Truncating the failure buffer is safe: the previous run's Result holds
	// its own copy.
	r.res = Result{}
	r.failures = r.failures[:0]
	r.fatal = nil
	r.currentArrival = 0
	r.consumed = false
	return nil
}

// noteRestored settles the replacement-latency clock for a pair a Phase II
// move just restored: if any arrival was lost while the pair was down, the
// lapse length (first lost arrival through the current one, inclusive) is
// added to the latency accumulators.
func (r *Runner) noteRestored(pairID int) {
	if r.pairDownAt[pairID] < 0 {
		return
	}
	r.res.ReplaceLatencySum += int64(r.currentArrival - r.pairDownAt[pairID] + 1)
	r.res.ReplaceLatencyCount++
	r.pairDownAt[pairID] = -1
}

// Reset re-arms a consumed runner for another episode at the given capacity
// and seed, reusing every structure NewRunner built: the partition, the
// vehicles and their diffusion engines, the pair tables, and the network
// with all its link tables and ring buffers. It is arm with the current
// options' capacity and seed replaced, so after Reset the runner behaves
// bit-for-bit like NewRunner(opts with Capacity/Seed replaced) — the
// warm-start contract the capacity searches rely on. On error the runner is
// left unchanged.
func (r *Runner) Reset(capacity float64, seed int64) error {
	opts := r.opts
	opts.Capacity, opts.Seed = capacity, seed
	return r.arm(opts)
}

// ResetEpisode re-arms the runner for a new episode whose options may differ
// in everything *except* geometry: capacity, seed, the failure model,
// fleet, search protocol, Monitoring, MaxSteps, and Tracer are re-applied in
// place, while the partition, vehicles, diffusion engines, and the network's
// link tables and ring buffers are all kept. Arena (pointer identity) and
// cube side must match what the runner was built with — a geometry change
// requires a new Runner, which is exactly the rebuild-vs-reset split the
// sweep layer's Pool keys on. A different Partition of the same geometry is
// accepted, but the runner keeps its own: a Partition is a deterministic
// function of arena and cube side, and the engines' neighbor rows point into
// the runner's. After a successful ResetEpisode the runner behaves
// bit-for-bit like NewRunner(opts); on error the runner is left unchanged.
func (r *Runner) ResetEpisode(opts Options) error {
	if opts.Arena != r.opts.Arena {
		return errors.New("online: ResetEpisode with a different arena; build a new Runner")
	}
	if opts.CubeSide != 0 && opts.CubeSide != r.part.cubeSide {
		return fmt.Errorf("online: ResetEpisode cube side %d, runner was built with %d",
			opts.CubeSide, r.part.cubeSide)
	}
	if opts.Partition != nil && opts.Partition != r.part &&
		(opts.Partition.arena != r.part.arena || opts.Partition.cubeSide != r.part.cubeSide) {
		return errors.New("online: ResetEpisode Partition differs in geometry")
	}
	return r.arm(opts)
}

// densifyDeadEvents converts the public DeadBeforeArrival map into a slice
// of events sorted by arrival index (ties broken by cell, so runs stay
// reproducible regardless of map iteration order), reusing dst's storage.
// Negative arrival indices can never fire and are dropped, matching the
// original scan.
func densifyDeadEvents(dst []deadEvent, arena *grid.Grid, dead map[grid.Point]int) []deadEvent {
	events := dst[:0]
	for home, at := range dead {
		if at < 0 {
			continue
		}
		id := sim.NodeID(-1)
		if arena.Contains(home) {
			id = sim.NodeID(arena.Index(home))
		}
		events = append(events, deadEvent{at: at, id: id, home: home})
	}
	slices.SortFunc(events, func(a, b deadEvent) int {
		switch {
		case a.at != b.at:
			return cmp.Compare(a.at, b.at)
		case a.home.Less(b.home):
			return -1
		case b.home.Less(a.home):
			return 1
		}
		return 0
	})
	return events
}

// Partition returns the runner's geometry (shared; callers must not mutate
// it).
func (r *Runner) Partition() *Partition { return r.part }

// Run plays the arrival sequence: each job is routed to the vehicle
// physically covering its pair, the network is run to quiescence (the thesis
// assumes inter-arrival gaps long enough for all computation and movement),
// and — when monitoring is on — a heartbeat and a check round follow.
//
// A runner is single-use: Run consumes the vehicle states and counters, so
// calling it again without an intervening Reset returns ErrRunnerUsed.
func (r *Runner) Run(seq *demand.Sequence) (*Result, error) {
	if seq == nil {
		return nil, errors.New("online: arrival sequence is required")
	}
	if r.consumed {
		return nil, ErrRunnerUsed
	}
	r.consumed = true
	for i := 0; i < seq.Len(); i++ {
		r.currentArrival = i
		pos := seq.At(i)
		// Arrivals are visited in order and the cursor drains every event
		// with at == i, so the front event's at is always >= i here.
		for r.nextDead < len(r.deadEvents) && r.deadEvents[r.nextDead].at == i {
			ev := r.deadEvents[r.nextDead]
			r.nextDead++
			if ev.id < 0 {
				return nil, fmt.Errorf("online: DeadBeforeArrival cell %v not in arena", ev.home)
			}
			r.vehicles[ev.id].state = Dead
		}
		pairID, ok := r.part.PairOf(pos)
		if !ok {
			return nil, fmt.Errorf("online: arrival %v outside arena", pos)
		}
		servedBefore := r.res.Served
		r.net.Inject(r.pairActive[pairID],
			sim.Msg{Kind: msgServeJob, A: uint32(r.opts.Arena.Index(pos))})
		if err := r.quiesce(); err != nil {
			return nil, err
		}
		// Replacement-latency clock: a lost arrival opens a lapse on its
		// pair; a served one closes any lapse that healed without a
		// counted replacement (noteRestored settles the replaced ones).
		if r.res.Served > servedBefore {
			r.pairDownAt[pairID] = -1
		} else {
			if r.pairDownAt[pairID] < 0 {
				r.pairDownAt[pairID] = i
			}
			if r.evidence && r.opts.Monitoring {
				// The customer complaint channel: the job's customer was
				// physically present and observed non-service, which a
				// Byzantine casualty cannot counterfeit away. The complaint
				// reaches the pair's watcher alongside the heartbeat wave
				// and is acted on in the check round — evidence of absent
				// served work, regardless of beacon presence. Gated on the
				// Byzantine model so every legacy episode's message
				// schedule stays bit-identical.
				watcher := r.pairActive[r.part.WatcherPair(pairID)]
				r.net.Inject(watcher, sim.Msg{Kind: msgEvidence, A: uint32(pairID)})
			}
		}
		if r.opts.Monitoring {
			if err := r.monitorRound(); err != nil {
				return nil, err
			}
		}
		if r.fatal != nil {
			return nil, r.fatal
		}
	}
	res := r.res
	res.Messages = r.net.Delivered()
	if len(r.failures) > 0 {
		res.Failures = slices.Clone(r.failures)
	}
	return &res, nil
}

func (r *Runner) quiesce() error {
	return r.net.Run(r.opts.MaxSteps)
}

// monitorRound performs one heartbeat exchange followed by one check pass
// (the run-to-quiescence analogue of "send existing messages periodically;
// decide the neighbor is done after a timeout"). Each wave injects one
// round message to every node in arena-index order, node ids 0..n-1
// (identical to point enumeration order; a map iteration here would break
// run reproducibility by perturbing the delivery scheduler's RNG stream),
// then runs to quiescence.
func (r *Runner) monitorRound() error {
	for _, kind := range [...]uint8{msgHeartbeatRound, msgCheckRound} {
		for id := range r.vehicles {
			r.net.Inject(sim.NodeID(id), sim.Msg{Kind: kind})
		}
		if err := r.quiesce(); err != nil {
			return err
		}
	}
	return nil
}

// MinCapacity and MinCapacityParallel (the capacity-search layer) live in
// search.go.
