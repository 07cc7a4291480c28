package online

import (
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
// delivery path. The residual allocations are per-event bookkeeping
// (failure strings, trace events), not per-message: the hot-point workload
// delivers ~1300 messages per episode, so a per-message regression blows
// the ceiling immediately.
func TestWarmOnlineEpisodeAllocCeiling(t *testing.T) {
	const ceiling = 450
	if got := warmEpisodeAllocs(t, false); got > ceiling {
		t.Errorf("warm online episode allocated %.0f objects/run, ceiling %d", got, ceiling)
	}
}

// TestWarmMonitoringEpisodeAllocCeiling pins the monitored variant: the two
// full-arena InjectMany waves per job arrival must write inline message
// values into retained slots, adding nothing to the episode's allocations.
func TestWarmMonitoringEpisodeAllocCeiling(t *testing.T) {
	const ceiling = 450
	if got := warmEpisodeAllocs(t, true); got > ceiling {
		t.Errorf("warm monitoring episode allocated %.0f objects/run, ceiling %d", got, ceiling)
	}
}

// TestShardedNewRunnerAllocsFlat pins that a runner's construction cost
// does not grow with Options.SimShards: every value >= 1 selects the same
// single-goroutine scheduler, so building at 1000 allocates no more than
// building at 1.
func TestShardedNewRunnerAllocsFlat(t *testing.T) {
	arena := grid.MustNew(8, 8)
	part, err := NewPartition(arena, 8)
	if err != nil {
		t.Fatal(err)
	}
	build := func(shards int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := NewRunner(Options{
				Arena: arena, Partition: part, Capacity: 24, Seed: 1, SimShards: shards,
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := build(1), build(1000); many > one {
		t.Fatalf("NewRunner allocates %.0f objects at SimShards 1000, %.0f at 1", many, one)
	}
}
