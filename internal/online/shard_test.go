package online

import (
	"math/rand"
	"testing"

	"repro/internal/demand"
	"repro/internal/grid"
)

// The sealed-round scheduler (Options.SimShards >= 1) defines its own
// deterministic delivery schedule, bit-identical for every SimShards >= 1.
// On both canonical golden scenarios its pinned counters coincide with the
// legacy scheduler's: the observables (serves, total messages, searches,
// replacements, max energy) are schedule-insensitive there, so the
// sealed-round family inherits the historical goldens even though the
// interleavings differ. Any drift below means the sealed-round schedule
// changed.

func hotPointJobs() []grid.Point {
	jobs := make([]grid.Point, 60)
	for i := range jobs {
		jobs[i] = grid.P(4, 4)
	}
	return jobs
}

func failureInjectionJobs() []grid.Point {
	rng := rand.New(rand.NewSource(42))
	jobs := make([]grid.Point, 80)
	for i := range jobs {
		jobs[i] = grid.P(rng.Intn(6), rng.Intn(6))
	}
	return jobs
}

func shardFailOpts(arena *grid.Grid, shards int) Options {
	return Options{
		Arena: arena, CubeSide: 6, Capacity: 20, Seed: 9, Monitoring: true,
		SimShards: shards,
		Failure: &FailureModel{
			FailInitiate:      map[grid.Point]bool{grid.P(0, 0): true, grid.P(3, 3): true},
			DeadBeforeArrival: map[grid.Point]int{grid.P(2, 2): 10},
			Longevity:         map[grid.Point]float64{grid.P(5, 5): 0.5, grid.P(1, 4): 0},
		},
	}
}

// resultsEqual compares every field of two Results, including the failure
// lists entry by entry.
func resultsEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Served != b.Served || a.MaxEnergy != b.MaxEnergy || a.Messages != b.Messages ||
		a.Replacements != b.Replacements || a.Searches != b.Searches ||
		a.SearchFailures != b.SearchFailures || a.MonitorRescues != b.MonitorRescues ||
		a.EvidenceRescues != b.EvidenceRescues || a.ReplaceLatencySum != b.ReplaceLatencySum ||
		a.ReplaceLatencyCount != b.ReplaceLatencyCount {
		t.Fatalf("%s: results differ:\n a=%+v\n b=%+v", label, a, b)
	}
	if len(a.Failures) != len(b.Failures) {
		t.Fatalf("%s: %d failures vs %d", label, len(a.Failures), len(b.Failures))
	}
	for i := range a.Failures {
		if a.Failures[i] != b.Failures[i] {
			t.Fatalf("%s: failure %d: %+v vs %+v", label, i, a.Failures[i], b.Failures[i])
		}
	}
}

// TestShardedGoldenHotPoint pins the sealed-round schedule's counters on
// the hot-point scenario at SimShards 1/2/4/8: identical values at every
// setting, coinciding with the legacy golden.
func TestShardedGoldenHotPoint(t *testing.T) {
	arena := grid.MustNew(8, 8)
	jobs := hotPointJobs()
	want := goldenCounters{
		served: 60, messages: 1310, replacements: 2, searches: 2,
		maxEnergy: 23,
	}
	for _, shards := range []int{1, 2, 4, 8} {
		r := mustRunner(t, Options{
			Arena: arena, CubeSide: 8, Capacity: 24, Seed: 1, SimShards: shards,
		})
		res, err := r.Run(demand.NewSequence(jobs))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, res, want)
	}
}

// TestShardedGoldenFailureInjection is the same pin on the scenario that
// exercises monitoring waves, fail-initiate vehicles, a mid-sequence death,
// and longevity breakdowns — the injection-wave and rescue paths under
// sealed rounds.
func TestShardedGoldenFailureInjection(t *testing.T) {
	arena := grid.MustNew(6, 6)
	jobs := failureInjectionJobs()
	want := goldenCounters{
		served: 80, messages: 7616, replacements: 1, searches: 1,
		monitorRescues: 1, maxEnergy: 11,
	}
	for _, shards := range []int{1, 2, 4, 8} {
		r := mustRunner(t, shardFailOpts(arena, shards))
		res, err := r.Run(demand.NewSequence(jobs))
		if err != nil {
			t.Fatal(err)
		}
		checkPairOwnership(t, r)
		checkGolden(t, res, want)
	}
}

// TestShardedFullResultInvariance compares complete Results — every
// counter and the failure list — across SimShards values, on a capacity
// tight enough to produce failures (so failure-list order is exercised).
// 1000 stripes once cost memory and time quadratic in the count.
func TestShardedFullResultInvariance(t *testing.T) {
	arena := grid.MustNew(8, 8)
	jobs := hotPointJobs()
	run := func(shards int) *Result {
		r := mustRunner(t, Options{
			Arena: arena, CubeSide: 8, Capacity: 5, Seed: 3, SimShards: shards,
		})
		res, err := r.Run(demand.NewSequence(jobs))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	if len(ref.Failures) == 0 {
		t.Fatal("scenario produced no failures; failure merge order untested")
	}
	for _, shards := range []int{2, 4, 8, 1000} {
		resultsEqual(t, "shards", ref, run(shards))
	}
}

// TestShardedResetMatchesFresh extends the warm-start contract to
// sealed-round state: a reset runner replays the golden schedule exactly,
// even after perturbing episodes at other capacities and seeds.
func TestShardedResetMatchesFresh(t *testing.T) {
	arena := grid.MustNew(8, 8)
	jobs := hotPointJobs()
	want := goldenCounters{
		served: 60, messages: 1310, replacements: 2, searches: 2,
		maxEnergy: 23,
	}
	r := mustRunner(t, Options{
		Arena: arena, CubeSide: 8, Capacity: 24, Seed: 1, SimShards: 4,
	})
	res, err := r.Run(demand.NewSequence(jobs))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res, want)
	for _, probe := range []struct {
		capacity float64
		seed     int64
	}{{7, 1}, {100, 5}, {24, 99}} {
		if err := r.Reset(probe.capacity, probe.seed); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(demand.NewSequence(jobs)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Reset(24, 1); err != nil {
		t.Fatal(err)
	}
	res, err = r.Run(demand.NewSequence(jobs))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res, want)
}

// TestShardedResetEpisodeFlipsScheduler pins ResetEpisode's scheduler
// switching: legacy → sealed rounds → legacy on one pooled runner, each
// episode reproducing its family's golden counters. Both schedulers draw
// from the one generator that every ResetEpisode reseeds, so a sealed-round
// interlude must leave nothing behind for the next legacy episode.
func TestShardedResetEpisodeFlipsScheduler(t *testing.T) {
	arena := grid.MustNew(6, 6)
	jobs := failureInjectionJobs()
	want := goldenCounters{
		served: 80, messages: 7616, replacements: 1, searches: 1,
		monitorRescues: 1, maxEnergy: 11,
	}
	r := mustRunner(t, shardFailOpts(arena, 0))
	for i, shards := range []int{0, 4, 0, 1, 8, 0} {
		if i > 0 {
			if err := r.ResetEpisode(shardFailOpts(arena, shards)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := r.Run(demand.NewSequence(jobs))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		checkPairOwnership(t, r)
		checkGolden(t, res, want)
	}
}

// TestShardedGossipInvariance runs the gossip Phase I engine under sealed
// rounds: the alternative search protocol's schedule must not depend on the
// SimShards value either.
func TestShardedGossipInvariance(t *testing.T) {
	arena := grid.MustNew(8, 8)
	jobs := hotPointJobs()
	run := func(shards int) *Result {
		r := mustRunner(t, Options{
			Arena: arena, CubeSide: 8, Capacity: 24, Seed: 1, SimShards: shards,
			Search: SearchGossip, GossipFanout: 3,
		})
		res, err := r.Run(demand.NewSequence(jobs))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	if ref.Served != 60 {
		t.Fatalf("gossip hot-point served %d, want 60", ref.Served)
	}
	for _, shards := range []int{2, 8} {
		resultsEqual(t, "gossip", ref, run(shards))
	}
}

// TestShardedTracerSequential pins that a traced sealed-round episode
// produces the same result and a deterministic event stream at every
// SimShards value.
func TestShardedTracerSequential(t *testing.T) {
	arena := grid.MustNew(8, 8)
	jobs := hotPointJobs()
	run := func(shards int) ([]Event, *Result) {
		tr := &SliceTracer{}
		r := mustRunner(t, Options{
			Arena: arena, CubeSide: 8, Capacity: 24, Seed: 1, SimShards: shards,
			Tracer: tr,
		})
		res, err := r.Run(demand.NewSequence(jobs))
		if err != nil {
			t.Fatal(err)
		}
		return tr.Events, res
	}
	refEvents, refRes := run(1)
	if len(refEvents) == 0 {
		t.Fatal("tracer saw no events")
	}
	for _, shards := range []int{2, 8} {
		events, res := run(shards)
		resultsEqual(t, "traced", refRes, res)
		if len(events) != len(refEvents) {
			t.Fatalf("shards=%d: %d events, want %d", shards, len(events), len(refEvents))
		}
		for i := range events {
			if events[i] != refEvents[i] {
				t.Fatalf("shards=%d: event %d = %+v, want %+v", shards, i, events[i], refEvents[i])
			}
		}
	}
}
