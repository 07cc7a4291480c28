package online

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/demand"
	"repro/internal/grid"
)

// warmEpisodeAllocs measures steady-state allocations of one reset+run
// episode on a long-lived runner, after a cold run has sized all storage.
func warmEpisodeAllocs(t *testing.T, monitoring bool) float64 {
	t.Helper()
	arena := grid.MustNew(8, 8)
	jobs := make([]grid.Point, 60)
	for i := range jobs {
		jobs[i] = grid.P(4, 4)
	}
	seq := demand.NewSequence(jobs)
	r, err := NewRunner(Options{
		Arena: arena, CubeSide: 8, Capacity: 24, Seed: 1, Monitoring: monitoring,
	})
	if err != nil {
		t.Fatal(err)
	}
	drive := func() {
		res, err := r.Run(seq)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK() {
			t.Fatalf("run failed: %v", res.Failures[0])
		}
	}
	drive() // cold run sizes mailboxes, ring buffers, event storage
	return testing.AllocsPerRun(5, func() {
		if err := r.Reset(24, 1); err != nil {
			t.Fatal(err)
		}
		drive()
	})
}

// TestWarmOnlineEpisodeAllocCeiling is the CI alloc guard for the online
// layer: a warm episode's allocations are bounded by a hard ceiling so
// boxing (or any other per-message allocation) cannot creep back into the
// delivery path. The one allocation is the Result copy Run returns: the
// hot-point workload delivers ~1300 messages and runs two searches and two
// moves per episode, so any per-message or per-event allocation, trace
// formatting included, blows the ceiling.
func TestWarmOnlineEpisodeAllocCeiling(t *testing.T) {
	const ceiling = 1
	if got := warmEpisodeAllocs(t, false); got > ceiling {
		t.Errorf("warm online episode allocated %.0f objects/run, ceiling %d", got, ceiling)
	}
}

// TestWarmMonitoringEpisodeAllocCeiling pins the monitored variant: the two
// full-arena injection waves per job arrival must write inline message
// values into retained slots, adding nothing to the episode's allocations.
func TestWarmMonitoringEpisodeAllocCeiling(t *testing.T) {
	const ceiling = 1
	if got := warmEpisodeAllocs(t, true); got > ceiling {
		t.Errorf("warm monitoring episode allocated %.0f objects/run, ceiling %d", got, ceiling)
	}
}

// eventfulOptions is a monitored episode on the failure workload that
// reaches the traced paths: exhaustion searches, failed searches, moves,
// Longevity breakdowns, silent and Byzantine (evidence) rescues, and
// failures.
func eventfulOptions() Options {
	opts := failureBase()
	opts.Capacity = 5
	opts.Failure = &FailureModel{
		DeadBeforeArrival: map[grid.Point]int{grid.P(2, 2): 10},
		Byzantine:         map[grid.Point]bool{grid.P(2, 2): true},
		Longevity:         map[grid.Point]float64{grid.P(5, 5): 0.5, grid.P(0, 0): 0.3},
	}
	return opts
}

// TestWarmUntracedEpisodeAllocs guards that an untraced episode formats
// nothing: on a warm runner with a nil Tracer, the only allocations are the
// Result copy, the copy of its Failures list, and one reason string per
// energy or move failure (their texts carry a float), however many
// searches, moves, breakdowns, rescues and state failures fire. A state
// failure reuses the text its vehicle built for that state.
func TestWarmUntracedEpisodeAllocs(t *testing.T) {
	opts := eventfulOptions()
	seq := failureJobs()
	tracer := &SliceTracer{}
	opts.Tracer = tracer
	r := mustRunner(t, opts)
	res, err := r.Run(seq) // cold run sizes every buffer
	if err != nil {
		t.Fatal(err)
	}
	if res.Replacements == 0 || res.SearchFailures == 0 || res.MonitorRescues == 0 ||
		res.EvidenceRescues == 0 || len(res.Failures) == 0 || tracer.Count(EventDead) == 0 {
		t.Fatalf("episode misses a traced path: %+v, %d dead events", res, tracer.Count(EventDead))
	}
	opts.Tracer = nil
	got := testing.AllocsPerRun(5, func() {
		if err := r.ResetEpisode(opts); err != nil {
			t.Fatal(err)
		}
		if res, err = r.Run(seq); err != nil {
			t.Fatal(err)
		}
	})
	floats := 0
	for _, f := range res.Failures {
		if !strings.Contains(f.Reason, " in state ") {
			floats++
		}
	}
	if ceiling := 2 + floats; got > float64(ceiling) {
		t.Errorf("warm untraced episode with %d failures, %d of them energy or move, allocated %.0f objects/run, ceiling %d",
			len(res.Failures), floats, got, ceiling)
	}
}

// TestWarmResetEpisodeAllocs guards that re-arming a warm runner for an
// episode with scheduled deaths re-densifies DeadBeforeArrival into the
// runner's retained storage: ResetEpisode allocates nothing.
func TestWarmResetEpisodeAllocs(t *testing.T) {
	opts := eventfulOptions()
	r := mustRunner(t, opts)
	if got := testing.AllocsPerRun(5, func() {
		if err := r.ResetEpisode(opts); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("warm ResetEpisode allocated %.0f objects/run, want 0", got)
	}
}

// leastMallocs runs f five times and returns the least object count and
// the least byte count one run allocated, read from runtime.MemStats: a
// garbage collection that starts during a run allocates in the runtime
// too, so the least run is the one f alone accounts for.
func leastMallocs(f func()) (objects, bytes uint64) {
	objects, bytes = math.MaxUint64, math.MaxUint64
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return objects, bytes
}

// newRunnerCost measures NewRunner on a shared side x side partition with
// cube side 4.
func newRunnerCost(t *testing.T, side, shards int) (objects, bytes uint64) {
	t.Helper()
	arena := grid.MustNew(side, side)
	part, err := NewPartition(arena, 4)
	if err != nil {
		t.Fatal(err)
	}
	return leastMallocs(func() {
		if _, err := NewRunner(Options{
			Arena: arena, Partition: part, Capacity: 24, Seed: 1, SimShards: shards,
		}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestNewRunnerAllocsFlat pins that building a runner on a shared partition
// takes the same allocations whatever the arena size and scheduler: the
// Runner, the network (its generator held inline) and its node table (sized
// once), the vehicle slab with the engines embedded, and the three pair
// tables. No closure or slice is built per vehicle: each engine floods the
// row its vehicle reads from the partition.
func TestNewRunnerAllocsFlat(t *testing.T) {
	const want = 7
	runtime.GC() // start the runtime's mark workers outside any count
	for _, side := range []int{8, 16, 32, 64} {
		for _, shards := range []int{0, 1, 1000} {
			if got, _ := newRunnerCost(t, side, shards); got != want {
				t.Errorf("%dx%d, SimShards %d: NewRunner allocated %d objects, want %d",
					side, side, shards, got, want)
			}
		}
	}
}

// TestNewRunnerAllocBytesPerCell bounds what a runner built on a shared
// partition costs per arena cell under either scheduler: a 160-byte
// vehicle, a 56-byte node-table entry and the pair tables. Both schedulers
// take 221 bytes per cell at 32x32 and at 64x64. The network's generator
// is 16 bytes; a 15 KB one, as math/rand's, would read 236 at 32x32.
func TestNewRunnerAllocBytesPerCell(t *testing.T) {
	const ceiling = 230
	runtime.GC()
	for _, side := range []int{32, 64} {
		for _, shards := range []int{0, 1} {
			_, bytes := newRunnerCost(t, side, shards)
			if perCell := float64(bytes) / float64(side*side); perCell > ceiling {
				t.Errorf("%dx%d, SimShards %d: NewRunner allocated %.1f bytes per cell, ceiling %d",
					side, side, shards, perCell, ceiling)
			}
		}
	}
}

// TestVehicleLayout pins the vehicle at 160 bytes, the slab's per-cell
// share of a runner: 256 of them fill a 16x16 arena's 40,960-byte slab
// exactly, where 168 would round it up to 49,152. A field added out of
// place, or one grown back to a word, fails here.
func TestVehicleLayout(t *testing.T) {
	if got := unsafe.Sizeof(vehicle{}); got > 160 {
		t.Errorf("vehicle is %d bytes, want at most 160", got)
	}
}

// TestColdMonitoredEpisodeAllocs guards the first monitored episode on a
// fresh runner: a watcher keeps the beacon and complaint of its one watched
// pair in two bools, so the first Run allocates the same few objects on any
// arena instead of one map per watcher. It counts the least of five single
// runs, each on a fresh runner.
func TestColdMonitoredEpisodeAllocs(t *testing.T) {
	const ceiling = 24
	// The first collection in a process starts the runtime's mark worker
	// goroutines, whose allocations would otherwise land in a count.
	runtime.GC()
	for _, n := range []int{8, 16, 32} {
		arena := grid.MustNew(n, n)
		rng := rand.New(rand.NewSource(int64(n)))
		jobs := make([]grid.Point, 50)
		for i := range jobs {
			jobs[i] = grid.P(rng.Intn(n), rng.Intn(n))
		}
		seq := demand.NewSequence(jobs)
		least := uint64(math.MaxUint64)
		for range 5 {
			r := mustRunner(t, Options{Arena: arena, CubeSide: 4, Capacity: 24, Seed: 1, Monitoring: true})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := r.Run(seq)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				t.Fatalf("%dx%d: run failed: %v", n, n, res.Failures[0])
			}
			least = min(least, after.Mallocs-before.Mallocs)
		}
		if least > ceiling {
			t.Errorf("%dx%d: first monitored Run allocated %d objects, ceiling %d", n, n, least, ceiling)
		}
	}
}

// TestCapacityProbeAllocs guards the capacity search's probe on a warm
// runner. A feasible probe plays the whole sequence and allocates nothing:
// it reads its verdict from the runner instead of copying out a Result. An
// infeasible probe stops after the arrival of its first failure, so it
// allocates only the reason texts of the energy or move failures recorded
// at that arrival, however many jobs the full episode would have lost: one
// without monitoring, and one more when the arrival's monitor round
// recruits a second vehicle that cannot afford its move. A state failure
// costs no text. At seed 14 and capacity 4 the hot point's chain of
// replacements ends with no energy or move failure: the last move order is
// dropped by a candidate whose engine has since joined a straggling query
// of an older search, so the pair's vehicle stays done.
func TestCapacityProbeAllocs(t *testing.T) {
	hotArena, hotSeq := hotPointSeq(60)
	hot := Options{Arena: hotArena, CubeSide: 8, Seed: 1}
	monitored := hot
	monitored.Monitoring = true
	stateFail := hot
	stateFail.Seed = 14
	for _, tc := range []struct {
		name     string
		seq      *demand.Sequence
		base     Options
		w        float64
		feasible bool
		floats   int // energy or move failures at the stopping arrival
	}{
		{"hot point, feasible", hotSeq, hot, 24, true, 0},
		{"hot point, monitored, feasible", hotSeq, monitored, 24, true, 0},
		{"hot point, state failure", hotSeq, stateFail, 4, false, 0},
		{"hot point, move failure", hotSeq, hot, 6, false, 1},
		{"hot point, monitored, move failure", hotSeq, monitored, 6, false, 1},
		{"hot point, monitored, two move failures", hotSeq, monitored, 3, false, 2},
		{"failure injection, dead vehicle", failureJobs(), eventfulOptions(), 12, false, 0},
	} {
		p := &prober{seq: tc.seq, base: tc.base, pool: NewPool()}
		ok, err := p.probe(tc.w) // the first probe builds the runner and sizes every buffer
		if err != nil {
			t.Fatal(err)
		}
		floats := 0
		for _, f := range p.r.failures {
			if !strings.Contains(f.Reason, " in state ") {
				floats++
			}
		}
		if ok != tc.feasible || floats != tc.floats {
			t.Fatalf("%s: capacity %v feasible %v with %d energy or move failures, want %v with %d",
				tc.name, tc.w, ok, floats, tc.feasible, tc.floats)
		}
		if !ok && floats == 0 && len(p.r.failures) == 0 {
			t.Fatalf("%s: capacity %v stopped on no recorded failure", tc.name, tc.w)
		}
		got := testing.AllocsPerRun(5, func() {
			if _, err := p.probe(tc.w); err != nil {
				t.Fatal(err)
			}
		})
		if got > float64(floats) {
			t.Errorf("%s: warm probe at capacity %v allocated %.0f objects, ceiling %d",
				tc.name, tc.w, got, floats)
		}
	}
}

// TestWarmMinCapacityAllocs guards the pooled capacity search: a search
// repeated on a pool that holds a runner of its geometry builds nothing and
// allocates only the reason texts of the energy and move failures at the
// stopping arrivals of its infeasible probes (TestCapacityProbeAllocs): no
// runner, prober or Result.
func TestWarmMinCapacityAllocs(t *testing.T) {
	hotArena, hotSeq := hotPointSeq(60)
	hot := Options{Arena: hotArena, CubeSide: 8, Seed: 1}
	monitored := hot
	monitored.Monitoring = true
	for _, tc := range []struct {
		name string
		seq  *demand.Sequence
		base Options
	}{
		{"hot point", hotSeq, hot},
		{"hot point, monitored", hotSeq, monitored},
		{"failure injection", failureJobs(), failureInjectionOpts(grid.MustNew(6, 6))},
	} {
		// The first search builds the runner; its probes count the reason
		// texts every later search allocates.
		pool := NewPool()
		p := &prober{seq: tc.seq, base: tc.base, pool: pool}
		floats := 0
		want, err := grid.Least(func(w float64) (bool, error) {
			ok, err := p.probe(w)
			for _, f := range p.r.failures {
				if !strings.Contains(f.Reason, " in state ") {
					floats++
				}
			}
			return ok, err
		}, serveCost, serveCost, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(5, func() {
			if won, err := minCapacity(pool, tc.seq, tc.base, 0.05); err != nil || won != want {
				t.Fatalf("%s: warm search %v (%v), want %v", tc.name, won, err, want)
			}
		})
		if st := pool.Stats(); st.Builds != 1 {
			t.Errorf("%s: %d runner builds, want 1", tc.name, st.Builds)
		}
		if got > float64(floats) {
			t.Errorf("%s: warm search allocated %.0f objects, ceiling %d reason texts", tc.name, got, floats)
		}
		t.Logf("%s: Won %v, %.0f allocations, %d reason texts", tc.name, want, got, floats)
	}
}
