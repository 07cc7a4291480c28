package online

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/demand"
	"repro/internal/diffuse"
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

// Failure records one unserved or mis-served job.
type Failure struct {
	Pos    grid.Point
	Reason string
}

// Result aggregates a run's outcome and cost metrics.
type Result struct {
	// Served counts successfully processed jobs.
	Served int64
	// Failures lists jobs that could not be served within capacity; empty
	// Failures means the capacity was sufficient for this sequence.
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

// OK reports whether every job was served.
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

	vehicles   []*vehicle   // dense, indexed by arena index (= sim.NodeID)
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
	// Messages filled in.
	res            Result
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
	r.res.Failures = append(r.res.Failures, Failure{Pos: pos, Reason: reason})
	r.emit(EventFailure, pos, pos, 0, reason)
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
// false, giving every vehicle unlimited energy. NewRunner, Reset and
// ResetEpisode share it.
func checkCapacity(c float64) error {
	if !(c > 0) || math.IsInf(c, 1) {
		return fmt.Errorf("online: capacity %v must be positive and finite", c)
	}
	return nil
}

// NewRunner builds the network: one vehicle per arena cell, initially active
// on the pair's black vertex and idle on the white one. When
// Options.Partition is set the prebuilt geometry is reused; otherwise one is
// constructed for Arena and CubeSide.
func NewRunner(opts Options) (*Runner, error) {
	if opts.Arena == nil {
		return nil, errors.New("online: Arena is required")
	}
	if err := checkCapacity(opts.Capacity); err != nil {
		return nil, err
	}
	part := opts.Partition
	if part == nil {
		var err error
		part, err = NewPartition(opts.Arena, opts.CubeSide)
		if err != nil {
			return nil, err
		}
	} else {
		if part.arena != opts.Arena {
			return nil, errors.New("online: Options.Partition was built for a different arena")
		}
		if opts.CubeSide != 0 && opts.CubeSide != part.cubeSide {
			return nil, fmt.Errorf("online: Options.Partition has cube side %d, CubeSide asks for %d",
				part.cubeSide, opts.CubeSide)
		}
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = defaultMaxSteps
	}
	// Normalize and validate the failure, fleet, and search knobs before
	// building anything: unknown cells, bad multipliers, and malformed
	// fanouts are rejected here, matching the unknown-cell error
	// DeadBeforeArrival surfaces when its event fires.
	model, err := opts.validateExtensions(opts.Arena)
	if err != nil {
		return nil, err
	}
	r := &Runner{
		opts:           opts,
		part:           part,
		net:            sim.NewNetwork(opts.Seed),
		vehicles:       make([]*vehicle, opts.Arena.Len()),
		pairActive:     make([]sim.NodeID, len(part.Pairs())),
		pendingReplace: make([]bool, len(part.Pairs())),
		pairDownAt:     make([]int, len(part.Pairs())),
		evidence:       len(model.Byzantine) > 0,
	}
	// Densify the failure-injection maps once at the public boundary; the
	// simulation itself never hashes a point again.
	r.deadEvents = densifyDeadEvents(opts.Arena, model.DeadBeforeArrival)
	// One fanout reader for every engine: the search reads the episode's
	// GossipFanout per flood, so ResetEpisode re-tunes it without a rebuild.
	fanout := func() int { return r.opts.GossipFanout }
	for idx := int64(0); idx < opts.Arena.Len(); idx++ {
		cell := opts.Arena.PointAt(idx)
		id := sim.NodeID(idx)
		pairID := part.PairAt(idx)
		if pairID < 0 {
			return nil, fmt.Errorf("online: cell %v not covered by partition", cell)
		}
		longevity := 1.0
		if p, ok := model.Longevity[cell]; ok {
			longevity = p
		}
		// Resolve the communication neighborhood to node ids once; the
		// search engines flood this exact slice on every Phase I search.
		nidx := part.CommNeighborIndices(idx)
		neighbors := make([]sim.NodeID, len(nidx))
		for i, ni := range nidx {
			neighbors[i] = sim.NodeID(ni)
		}
		v := &vehicle{
			r:            r,
			id:           id,
			home:         cell,
			failInitiate: model.FailInitiate[cell],
			longevity:    longevity,
			byzantine:    model.Byzantine[cell],
			neighbors:    neighbors,
		}
		v.applyClass(opts.Fleet, part)
		ds, err := diffuse.New(diffuse.Config{
			Neighbors: func() []sim.NodeID { return v.neighbors },
			IsCandidate: func() bool {
				return v.state == Idle && v.untilBreak() >= v.reserveCost()
			},
			Fanout: fanout,
			OnComplete: func(ctx sim.Sender, seq int, found bool) {
				v.onSearchComplete(ctx, seq, found)
			},
			OnPayload: func(ctx sim.Sender, payload diffuse.Payload) {
				v.onMoveOrder(ctx, moveOrder{
					Dest:   opts.Arena.PointAt(int64(payload.A)),
					PairID: int(payload.B),
				})
			},
		})
		if err != nil {
			return nil, err
		}
		v.ds = ds
		r.vehicles[id] = v
		if err := r.net.Add(id, v); err != nil {
			return nil, err
		}
	}
	if err := r.net.SetSealed(opts.SimShards > 0); err != nil {
		return nil, err
	}
	r.restoreInitialState()
	return r, nil
}

// restoreInitialState puts every mutable piece of the episode — vehicle
// positions, working states, energy, the pair-ownership tables, the dead-
// event cursor, and all counters — back to its just-constructed value. It is
// the shared tail of NewRunner and Reset, which is what makes a reset run
// bit-for-bit identical to a fresh one.
func (r *Runner) restoreInitialState() {
	for _, v := range r.vehicles {
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
		v.ds.Reset()
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
	}
	for i := range r.pairDownAt {
		r.pairDownAt[i] = -1
	}
	r.nextDead = 0
	// A fresh Result drops the failure list rather than truncating it: the
	// previous run's Result aliases the old backing array.
	r.res = Result{}
	r.fatal = nil
	r.currentArrival = 0
	r.consumed = false
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
// with all its link tables and ring buffers. After Reset the runner behaves
// bit-for-bit like NewRunner(opts with Capacity/Seed replaced) — the
// warm-start contract the capacity searches rely on.
func (r *Runner) Reset(capacity float64, seed int64) error {
	if err := checkCapacity(capacity); err != nil {
		return err
	}
	r.opts.Capacity = capacity
	r.opts.Seed = seed
	r.net.Reset(seed)
	r.restoreInitialState()
	return nil
}

// ResetEpisode re-arms the runner for a new episode whose options may differ
// in everything *except* geometry: capacity, seed, the failure model,
// fleet, search protocol, Monitoring, MaxSteps, and Tracer are re-applied in
// place, while the partition, vehicles, diffusion engines, and the network's
// link tables and ring buffers are all kept. Arena (pointer identity) and
// cube side must match what the runner was built with — a geometry change
// requires a new Runner, which is exactly the rebuild-vs-reset split the
// sweep layer's Pool keys on. After a successful ResetEpisode the runner
// behaves bit-for-bit like NewRunner(opts); on error the runner is left
// unchanged.
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
	if err := checkCapacity(opts.Capacity); err != nil {
		return err
	}
	// Validate before mutating anything, so a rejected episode cannot leave
	// the runner half-updated — the same construction-time checks NewRunner
	// runs, covering the failure model, fleet, and search knobs.
	model, err := opts.validateExtensions(opts.Arena)
	if err != nil {
		return err
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = defaultMaxSteps
	}
	// Re-densify the failure injections and fleet classes exactly as
	// NewRunner does.
	for _, v := range r.vehicles {
		longevity := 1.0
		if p, ok := model.Longevity[v.home]; ok {
			longevity = p
		}
		v.longevity = longevity
		v.failInitiate = model.FailInitiate[v.home]
		v.byzantine = model.Byzantine[v.home]
		v.applyClass(opts.Fleet, r.part)
	}
	r.deadEvents = densifyDeadEvents(opts.Arena, model.DeadBeforeArrival)
	r.evidence = len(model.Byzantine) > 0
	// Geometry is interchangeable by construction (a Partition is a
	// deterministic function of arena and cube side), so keep the runner's
	// own — the per-vehicle neighbor lists already point into it.
	opts.Partition = r.part
	r.opts = opts
	r.net.Reset(opts.Seed)
	if err := r.net.SetSealed(opts.SimShards > 0); err != nil {
		return err
	}
	r.restoreInitialState()
	return nil
}

// densifyDeadEvents converts the public DeadBeforeArrival map into a slice
// of events sorted by arrival index (ties broken by cell, so runs stay
// reproducible regardless of map iteration order). Negative arrival indices
// can never fire and are dropped, matching the original scan.
func densifyDeadEvents(arena *grid.Grid, dead map[grid.Point]int) []deadEvent {
	if len(dead) == 0 {
		return nil
	}
	events := make([]deadEvent, 0, len(dead))
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
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].home.Less(events[j].home)
	})
	return events
}

// Partition exposes the geometry (for tests and diagnostics).
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
