package online

import (
	"strings"
	"testing"

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

// TestNewRunnerAllocsFlat pins that building a runner on a shared partition
// takes a near-constant number of allocations, whatever the arena size and
// scheduler: the vehicles live in one slab with their engines embedded, each
// engine floods the partition's own neighbor row, and no closure is built
// per vehicle. What growth remains is the network's node table doubling.
func TestNewRunnerAllocsFlat(t *testing.T) {
	const ceiling = 24
	for _, side := range []int{8, 16, 32} {
		arena := grid.MustNew(side, side)
		part, err := NewPartition(arena, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{0, 1, 1000} {
			got := testing.AllocsPerRun(3, func() {
				if _, err := NewRunner(Options{
					Arena: arena, Partition: part, Capacity: 24, Seed: 1, SimShards: shards,
				}); err != nil {
					t.Fatal(err)
				}
			})
			if got > ceiling {
				t.Errorf("%dx%d, SimShards %d: NewRunner allocated %.0f objects, ceiling %d",
					side, side, shards, got, ceiling)
			}
		}
	}
}
