package online

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/demand"
	"repro/internal/grid"
)

// failureJobs is the golden failure-injection workload (80 seed-42 arrivals
// on the 6x6 arena) reused by the scenario tests below.
func failureJobs() *demand.Sequence {
	rng := rand.New(rand.NewSource(42))
	jobs := make([]grid.Point, 80)
	for i := range jobs {
		jobs[i] = grid.P(rng.Intn(6), rng.Intn(6))
	}
	return demand.NewSequence(jobs)
}

func failureBase() Options {
	return Options{
		Arena: grid.MustNew(6, 6), CubeSide: 6, Capacity: 20, Seed: 9,
		Monitoring: true,
	}
}

// --- satellite 1: eager validation of map-keyed knobs ----------------------

func TestFailInitiateUnknownCellEager(t *testing.T) {
	opts := Options{
		Arena: grid.MustNew(2, 2), CubeSide: 2, Capacity: 5, Seed: 1,
		Failure: &FailureModel{FailInitiate: map[grid.Point]bool{grid.P(7, 7): true}},
	}
	if _, err := NewRunner(opts); err == nil || !strings.Contains(err.Error(), "FailInitiate") {
		t.Errorf("NewRunner err = %v, want FailInitiate cell error", err)
	}
}

func TestLongevityUnknownCellEager(t *testing.T) {
	opts := Options{
		Arena: grid.MustNew(2, 2), CubeSide: 2, Capacity: 5, Seed: 1,
		Failure: &FailureModel{Longevity: map[grid.Point]float64{grid.P(7, 7): 0.5}},
	}
	if _, err := NewRunner(opts); err == nil || !strings.Contains(err.Error(), "Longevity") {
		t.Errorf("NewRunner err = %v, want Longevity cell error", err)
	}
}

func TestByzantineUnknownCellEager(t *testing.T) {
	opts := Options{
		Arena: grid.MustNew(2, 2), CubeSide: 2, Capacity: 5, Seed: 1,
		Failure: &FailureModel{Byzantine: map[grid.Point]bool{grid.P(7, 7): true}},
	}
	if _, err := NewRunner(opts); err == nil || !strings.Contains(err.Error(), "Byzantine") {
		t.Errorf("NewRunner err = %v, want Byzantine cell error", err)
	}
}

func TestLongevityOutOfRangeEager(t *testing.T) {
	opts := Options{
		Arena: grid.MustNew(2, 2), CubeSide: 2, Capacity: 5, Seed: 1,
		Failure: &FailureModel{Longevity: map[grid.Point]float64{grid.P(0, 0): 1.5}},
	}
	if _, err := NewRunner(opts); err == nil || !strings.Contains(err.Error(), "outside [0,1]") {
		t.Errorf("NewRunner err = %v, want longevity range error", err)
	}
}

// TestResetEpisodeValidatesBeforeMutating pins that a bad episode config is
// rejected up front and leaves the pooled runner fully usable.
func TestResetEpisodeValidatesBeforeMutating(t *testing.T) {
	good := Options{Arena: grid.MustNew(4, 4), CubeSide: 4, Capacity: 10, Seed: 1}
	r := mustRunner(t, good)
	for _, bad := range []Options{
		{Arena: good.Arena, CubeSide: 4, Capacity: 10, Seed: 1,
			Failure: &FailureModel{FailInitiate: map[grid.Point]bool{grid.P(9, 9): true}}},
		{Arena: good.Arena, CubeSide: 4, Capacity: 10, Seed: 1,
			Failure: &FailureModel{Longevity: map[grid.Point]float64{grid.P(9, 9): 0.5}}},
		{Arena: good.Arena, CubeSide: 4, Capacity: 10, Seed: 1,
			Failure: &FailureModel{Byzantine: map[grid.Point]bool{grid.P(9, 9): true}}},
		{Arena: good.Arena, CubeSide: 4, Capacity: 10, Seed: 1,
			GossipFanout: 2}, // fanout without SearchGossip
		{Arena: good.Arena, CubeSide: 4, Capacity: 10, Seed: 1,
			Fleet: &Fleet{}}, // no classes
		{Arena: good.Arena, CubeSide: 4, Capacity: 10, Seed: 1, MaxSteps: -1},
		{Arena: good.Arena, CubeSide: 4, Capacity: 10, Seed: 1, SimShards: -1},
	} {
		if err := r.ResetEpisode(bad); err == nil {
			t.Errorf("ResetEpisode(%+v) should fail", bad)
		}
	}
	// The runner survives rejected episodes unchanged.
	if err := r.ResetEpisode(good); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(demand.NewSequence([]grid.Point{grid.P(0, 0)}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Errorf("post-rejection run failed: %+v", res)
	}
}

// --- satellite 2: the precomputed watched-by index --------------------------

func TestWatchedPairInvertsWatcherPair(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {6, 6}, {8, 8}, {5, 7}} {
		part, err := NewPartition(grid.MustNew(dims[0], dims[1]), 2)
		if err != nil {
			t.Fatal(err)
		}
		for p := range part.Pairs() {
			if got := part.WatcherPair(part.WatchedPair(p)); got != p {
				t.Errorf("%v: WatcherPair(WatchedPair(%d)) = %d", dims, p, got)
			}
			if got := part.WatchedPair(part.WatcherPair(p)); got != p {
				t.Errorf("%v: WatchedPair(WatcherPair(%d)) = %d", dims, p, got)
			}
		}
	}
}

// --- tentpole (a): the Byzantine mode and its evidence channel --------------

// TestByzantineBeaconsFoolSilenceDetection is the acceptance scenario: a
// vehicle that dies but keeps emitting heartbeats is invisible to the
// beacon-timeout path (MonitorRescues stays zero for it) yet is unmasked and
// replaced through the evidence channel, restoring service.
func TestByzantineBeaconsFoolSilenceDetection(t *testing.T) {
	lying := failureBase()
	lying.Failure = &FailureModel{
		DeadBeforeArrival: map[grid.Point]int{grid.P(2, 2): 10},
		Byzantine:         map[grid.Point]bool{grid.P(2, 2): true},
	}
	silent := failureBase()
	silent.Failure = &FailureModel{
		DeadBeforeArrival: map[grid.Point]int{grid.P(2, 2): 10},
	}

	resSilent, err := mustRunner(t, silent).Run(failureJobs())
	if err != nil {
		t.Fatal(err)
	}
	if resSilent.MonitorRescues == 0 {
		t.Fatalf("control: silent crash not caught by beacon timeout: %+v", resSilent)
	}
	if resSilent.EvidenceRescues != 0 {
		t.Errorf("control: silent crash should not need the evidence channel: %+v", resSilent)
	}

	resLying, err := mustRunner(t, lying).Run(failureJobs())
	if err != nil {
		t.Fatal(err)
	}
	if resLying.MonitorRescues != 0 {
		t.Errorf("byzantine: beacon timeout fired despite forged heartbeats: %+v", resLying)
	}
	if resLying.EvidenceRescues == 0 {
		t.Fatalf("byzantine: evidence channel never fired: %+v", resLying)
	}
	if resLying.Replacements == 0 {
		t.Errorf("byzantine: no replacement dispatched: %+v", resLying)
	}
	// Service recovered: the replacement keeps serving after the lapse, so
	// only a bounded prefix of the dead pair's jobs is lost.
	if resLying.Served+int64(len(resLying.Failures)) != 80 {
		t.Errorf("accounting: served %d + failures %d != 80",
			resLying.Served, len(resLying.Failures))
	}
	if resLying.Served < 70 {
		t.Errorf("byzantine: service did not recover, served only %d/80", resLying.Served)
	}
	// The lapse was measured by the latency clock.
	if resLying.ReplaceLatencyCount == 0 || resLying.MeanReplaceLatency() < 1 {
		t.Errorf("latency accounting: %+v", resLying)
	}
}

// TestByzantineWithoutMonitoring pins the control: with the heartbeat ring
// off there is no watcher to complain to, so the lying casualty is never
// replaced and its jobs are lost.
func TestByzantineWithoutMonitoring(t *testing.T) {
	opts := failureBase()
	opts.Monitoring = false
	opts.Failure = &FailureModel{
		DeadBeforeArrival: map[grid.Point]int{grid.P(2, 2): 10},
		Byzantine:         map[grid.Point]bool{grid.P(2, 2): true},
	}
	res, err := mustRunner(t, opts).Run(failureJobs())
	if err != nil {
		t.Fatal(err)
	}
	if res.MonitorRescues != 0 || res.EvidenceRescues != 0 || res.Replacements != 0 {
		t.Errorf("no-monitoring control dispatched a rescue: %+v", res)
	}
	if len(res.Failures) == 0 {
		t.Error("no-monitoring control lost no jobs — scenario not exercising the dead pair")
	}
}

// --- tentpole (b): heterogeneous fleets -------------------------------------

// TestUnitFleetIsBitIdenticalToBaseline pins the IEEE bit-exactness claim:
// a fleet of all-1.0 classes multiplies every cost by exactly 1.0, so the
// run is indistinguishable from the uniform thesis fleet.
func TestUnitFleetIsBitIdenticalToBaseline(t *testing.T) {
	opts := failureBase()
	opts.Failure = &FailureModel{
		FailInitiate:      map[grid.Point]bool{grid.P(0, 0): true, grid.P(3, 3): true},
		DeadBeforeArrival: map[grid.Point]int{grid.P(2, 2): 10},
		Longevity:         map[grid.Point]float64{grid.P(5, 5): 0.5, grid.P(1, 4): 0},
	}
	base, err := mustRunner(t, opts).Run(failureJobs())
	if err != nil {
		t.Fatal(err)
	}
	classed := opts
	classed.Fleet = &Fleet{Classes: []VehicleClass{
		{Name: "standard"}, // zero multipliers mean 1.0
		{Name: "explicit", Speed: 1, Energy: 1, Capacity: 1},
	}}
	got, err := mustRunner(t, classed).Run(failureJobs())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Errorf("unit fleet diverged from baseline:\nbase %+v\ngot  %+v", base, got)
	}
}

func TestFastFleetChangesEnergyProfile(t *testing.T) {
	arena := grid.MustNew(8, 8)
	jobs := make([]grid.Point, 60)
	for i := range jobs {
		jobs[i] = grid.P(4, 4)
	}
	opts := Options{Arena: arena, CubeSide: 8, Capacity: 24, Seed: 1}
	base, err := mustRunner(t, opts).Run(demand.NewSequence(jobs))
	if err != nil {
		t.Fatal(err)
	}
	fast := opts
	fast.Fleet = &Fleet{Classes: []VehicleClass{{Name: "fast", Speed: 4}}}
	res, err := mustRunner(t, fast).Run(demand.NewSequence(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != base.Served {
		t.Errorf("fast fleet served %d, baseline %d", res.Served, base.Served)
	}
	// Walking is 4x cheaper, so replacements exhaust later: the speed class
	// must show up in the energy accounting (peak energy lands elsewhere,
	// never above a baseline that walks at full price per step).
	if res.MaxEnergy == base.MaxEnergy {
		t.Errorf("fast fleet peak energy %v identical to baseline — speed class not applied", res.MaxEnergy)
	}
	if res.Searches > base.Searches {
		t.Errorf("fast fleet exhausted more often: %d searches vs baseline %d",
			res.Searches, base.Searches)
	}
}

func TestSmallTankFleetExhaustsSooner(t *testing.T) {
	arena := grid.MustNew(8, 8)
	jobs := make([]grid.Point, 60)
	for i := range jobs {
		jobs[i] = grid.P(4, 4)
	}
	opts := Options{Arena: arena, CubeSide: 8, Capacity: 24, Seed: 1}
	base, err := mustRunner(t, opts).Run(demand.NewSequence(jobs))
	if err != nil {
		t.Fatal(err)
	}
	small := opts
	small.Fleet = &Fleet{Classes: []VehicleClass{{Name: "small", Capacity: 0.5}}}
	res, err := mustRunner(t, small).Run(demand.NewSequence(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Searches <= base.Searches && res.OK() {
		t.Errorf("half-capacity fleet: searches %d (base %d), ok=%v — capacity class not applied",
			res.Searches, base.Searches, res.OK())
	}
}

func TestFleetDefaultAssignmentIsPartitionAware(t *testing.T) {
	part, err := NewPartition(grid.MustNew(6, 6), 3)
	if err != nil {
		t.Fatal(err)
	}
	f := &Fleet{Classes: []VehicleClass{{Name: "a"}, {Name: "b"}, {Name: "c"}}}
	for cube := 0; cube < part.NumCubes(); cube++ {
		pairs := part.CubePairs(cube)
		for i, pid := range pairs {
			pr := part.Pairs()[pid]
			got := f.classAt(part, pr.ServicePos(), pid)
			want := f.Classes[i%len(f.Classes)]
			if got.Name != want.Name {
				t.Errorf("cube %d pair %d (rank %d): class %q, want %q",
					cube, pid, i, got.Name, want.Name)
			}
		}
	}
	// An explicit assignment overrides the round-robin.
	pr := part.Pairs()[0]
	f.Assign = map[grid.Point]int{pr.ServicePos(): 2}
	if got := f.classAt(part, pr.ServicePos(), 0); got.Name != "c" {
		t.Errorf("assign override ignored: got %q", got.Name)
	}
}

func TestFleetValidation(t *testing.T) {
	base := Options{Arena: grid.MustNew(4, 4), CubeSide: 4, Capacity: 10, Seed: 1}
	for name, fleet := range map[string]*Fleet{
		"no classes":         {},
		"negative speed":     {Classes: []VehicleClass{{Speed: -1}}},
		"NaN energy":         {Classes: []VehicleClass{{Energy: math.NaN()}}},
		"infinite capacity":  {Classes: []VehicleClass{{Capacity: math.Inf(1)}}},
		"-Inf speed":         {Classes: []VehicleClass{{Speed: math.Inf(-1)}}},
		"unknown cell":       {Classes: []VehicleClass{{}}, Assign: map[grid.Point]int{grid.P(9, 9): 0}},
		"index out of range": {Classes: []VehicleClass{{}}, Assign: map[grid.Point]int{grid.P(0, 0): 3}},
	} {
		opts := base
		opts.Fleet = fleet
		if _, err := NewRunner(opts); err == nil {
			t.Errorf("%s: NewRunner should fail", name)
		}
	}
}

// --- tentpole (c): the gossip dissemination alternative ---------------------

// TestFullFloodGossipMatchesDiffuse pins the degradation guarantee: at
// fanout 0, SearchGossip floods every neighbor exactly as SearchDiffuse
// does, so the whole episode result is identical.
func TestFullFloodGossipMatchesDiffuse(t *testing.T) {
	opts := failureBase()
	opts.Failure = &FailureModel{
		FailInitiate:      map[grid.Point]bool{grid.P(0, 0): true, grid.P(3, 3): true},
		DeadBeforeArrival: map[grid.Point]int{grid.P(2, 2): 10},
		Longevity:         map[grid.Point]float64{grid.P(5, 5): 0.5, grid.P(1, 4): 0},
	}
	base, err := mustRunner(t, opts).Run(failureJobs())
	if err != nil {
		t.Fatal(err)
	}
	if base.Searches == 0 {
		t.Fatal("scenario exercises no searches — comparison is vacuous")
	}
	gossiped := opts
	gossiped.Search = SearchGossip
	got, err := mustRunner(t, gossiped).Run(failureJobs())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Errorf("full-flood gossip diverged from diffuse:\nbase %+v\ngot  %+v", base, got)
	}
}

func TestGossipFanoutWithoutGossipIsRejected(t *testing.T) {
	opts := Options{
		Arena: grid.MustNew(4, 4), CubeSide: 4, Capacity: 10, Seed: 1,
		GossipFanout: 3,
	}
	if _, err := NewRunner(opts); err == nil {
		t.Error("GossipFanout without SearchGossip should fail")
	}
}

func TestGossipFanoutLimitsTraffic(t *testing.T) {
	// The hot-point workload exhausts vehicles and reliably runs Phase I
	// searches, so the fanout knob has traffic to limit.
	arena := grid.MustNew(8, 8)
	jobs := make([]grid.Point, 60)
	for i := range jobs {
		jobs[i] = grid.P(4, 4)
	}
	opts := Options{
		Arena: arena, CubeSide: 8, Capacity: 24, Seed: 1,
		Search: SearchGossip,
	}
	run := func(fanout int) *Result {
		o := opts
		o.GossipFanout = fanout
		res, err := mustRunner(t, o).Run(demand.NewSequence(jobs))
		if err != nil {
			t.Fatal(err)
		}
		if res.Searches == 0 {
			t.Fatalf("fanout %d: no searches — scenario not exercising gossip", fanout)
		}
		return res
	}
	full := run(0)
	limited := run(1)
	if limited.Messages >= full.Messages {
		t.Errorf("fanout 1 delivered %d messages, full flood %d — no traffic saving",
			limited.Messages, full.Messages)
	}
	// Determinism: the limited run replays bit-for-bit.
	if again := run(1); !reflect.DeepEqual(limited, again) {
		t.Errorf("fanout-1 run not deterministic:\nfirst %+v\nagain %+v", limited, again)
	}
}

// --- satellite 3: all four failure modes stacked ----------------------------

// stackedOptions exercises crash-initiate, crash-schedule, crash-wearout,
// and byzantine failures together, on a heterogeneous fleet, under gossip
// dissemination.
func stackedOptions() Options {
	opts := failureBase()
	opts.Failure = &FailureModel{
		FailInitiate:      map[grid.Point]bool{grid.P(0, 0): true},
		DeadBeforeArrival: map[grid.Point]int{grid.P(2, 2): 10},
		Longevity:         map[grid.Point]float64{grid.P(5, 5): 0.5, grid.P(1, 4): 0},
		Byzantine:         map[grid.Point]bool{grid.P(2, 2): true, grid.P(5, 5): true},
	}
	opts.Fleet = &Fleet{Classes: []VehicleClass{
		{Name: "standard"},
		{Name: "scout", Speed: 2, Capacity: 0.75},
	}}
	opts.Search = SearchGossip
	opts.GossipFanout = 3
	return opts
}

func TestStackedFailureModesAccounting(t *testing.T) {
	res, err := mustRunner(t, stackedOptions()).Run(failureJobs())
	if err != nil {
		t.Fatal(err)
	}
	// Every arrival is accounted for exactly once.
	if res.Served+int64(len(res.Failures)) != 80 {
		t.Errorf("served %d + failures %d != 80", res.Served, len(res.Failures))
	}
	// Every replacement came out of a completed search, and every rescue
	// (silent or evidence) initiated one.
	if res.Replacements > res.Searches {
		t.Errorf("replacements %d > searches %d", res.Replacements, res.Searches)
	}
	if res.MonitorRescues+res.EvidenceRescues > res.Searches {
		t.Errorf("rescues %d+%d > searches %d",
			res.MonitorRescues, res.EvidenceRescues, res.Searches)
	}
	if res.Searches < res.SearchFailures {
		t.Errorf("search failures %d > searches %d", res.SearchFailures, res.Searches)
	}
	// The byzantine casualty is only ever unmasked by evidence.
	if res.EvidenceRescues == 0 {
		t.Errorf("stacked run never used the evidence channel: %+v", res)
	}
	if res.ReplaceLatencySum < res.ReplaceLatencyCount {
		t.Errorf("latency sum %d < count %d (latencies are >= 1 arrival)",
			res.ReplaceLatencySum, res.ReplaceLatencyCount)
	}
}

// TestStackedWarmResetMatchesFresh pins the pooled warm-start contract for
// the full option surface: a runner recycled through ResetEpisode replays the
// stacked scenario bit-for-bit against a fresh construction.
func TestStackedWarmResetMatchesFresh(t *testing.T) {
	opts := stackedOptions()
	fresh, err := mustRunner(t, opts).Run(failureJobs())
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool()
	// Warm the pool with a plain episode on the same geometry, then switch
	// to the stacked one: every knob must be re-applied by ResetEpisode.
	plain := failureBase()
	r, err := pool.Get(plain)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(failureJobs()); err != nil {
		t.Fatal(err)
	}
	r, err = pool.Get(opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := r.Run(failureJobs())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, warm) {
		t.Errorf("warm stacked run diverged:\nfresh %+v\nwarm  %+v", fresh, warm)
	}
	// And switching back to the plain episode clears every stacked knob.
	r, err = pool.Get(plain)
	if err != nil {
		t.Fatal(err)
	}
	warmPlain, err := r.Run(failureJobs())
	if err != nil {
		t.Fatal(err)
	}
	freshPlain, err := mustRunner(t, plain).Run(failureJobs())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(freshPlain, warmPlain) {
		t.Errorf("plain episode after stacked one diverged:\nfresh %+v\nwarm  %+v",
			freshPlain, warmPlain)
	}
}
