package online

import (
	"math/rand"
	"testing"

	"repro/internal/demand"
	"repro/internal/grid"
)

// TestPoolSameShapeResets pins the pool's reuse contract: scenarios sharing
// a geometry replay on one warm runner (Reset, not rebuild), and with a
// prebuilt shared partition the pool performs zero partition builds.
func TestPoolSameShapeResets(t *testing.T) {
	arena := grid.MustNew(6, 6)
	part, err := NewPartition(arena, 6)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool()
	base := Options{Arena: arena, CubeSide: 6, Partition: part, Capacity: 14, Seed: 1}

	r1, err := pool.Get(base)
	if err != nil {
		t.Fatal(err)
	}
	// Vary everything ResetEpisode can absorb: capacity, seed, monitoring,
	// failure injection.
	alt := base
	alt.Capacity = 20
	alt.Seed = 9
	alt.Monitoring = true
	alt.Failure = &FailureModel{FailInitiate: map[grid.Point]bool{grid.P(0, 0): true}}
	r2, err := pool.Get(alt)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("same-geometry Get should return the same pooled runner")
	}
	if r2.Partition() != part {
		t.Error("pooled runner should keep the shared prebuilt partition (0 partition builds)")
	}
	if got := pool.Stats(); got.Builds != 1 || got.Resets != 1 {
		t.Errorf("stats = %+v, want 1 build / 1 reset", got)
	}
}

// TestPoolGeometryChangeRebuilds pins the other half of the keying: a cube-
// side or arena change builds a new runner instead of resetting.
func TestPoolGeometryChangeRebuilds(t *testing.T) {
	arena := grid.MustNew(8, 8)
	pool := NewPool()
	r1, err := pool.Get(Options{Arena: arena, CubeSide: 8, Capacity: 24, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := pool.Get(Options{Arena: arena, CubeSide: 4, Capacity: 24, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Error("cube-side change must build a new runner")
	}
	other := grid.MustNew(8, 8) // same sizes, different identity
	r3, err := pool.Get(Options{Arena: other, CubeSide: 8, Capacity: 24, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Error("arena identity change must build a new runner")
	}
	if got := pool.Stats(); got.Builds != 3 || got.Resets != 0 {
		t.Errorf("stats = %+v, want 3 builds / 0 resets", got)
	}
	// Coming back to a previously seen geometry resets its pooled runner.
	r4, err := pool.Get(Options{Arena: arena, CubeSide: 8, Capacity: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r4 != r1 {
		t.Error("returning to a pooled geometry should reuse its runner")
	}
	if got := pool.Stats(); got.Builds != 3 || got.Resets != 1 {
		t.Errorf("stats = %+v, want 3 builds / 1 reset", got)
	}
}

// failureInjectionOpts is the golden failure-injection scenario of
// golden_test.go, reused to prove ResetEpisode restores every injection
// path.
func failureInjectionOpts(arena *grid.Grid) Options {
	return Options{
		Arena: arena, CubeSide: 6, Capacity: 20, Seed: 9, Monitoring: true,
		Failure: &FailureModel{
			FailInitiate:      map[grid.Point]bool{grid.P(0, 0): true, grid.P(3, 3): true},
			DeadBeforeArrival: map[grid.Point]int{grid.P(2, 2): 10},
			Longevity:         map[grid.Point]float64{grid.P(5, 5): 0.5, grid.P(1, 4): 0},
		},
	}
}

// TestResetEpisodeMatchesFresh is the pooling analogue of
// TestGoldenResetMatchesFresh: a runner that played a *plain* episode and is
// then ResetEpisode'd into the golden failure-injection scenario must replay
// that scenario bit-for-bit like a freshly built runner — monitoring,
// fail-initiate flags, the dead-event cursor, and longevity thresholds are
// all re-applied, not leaked from the previous episode.
func TestResetEpisodeMatchesFresh(t *testing.T) {
	arena := grid.MustNew(6, 6)
	rng := rand.New(rand.NewSource(42))
	jobs := make([]grid.Point, 80)
	for i := range jobs {
		jobs[i] = grid.P(rng.Intn(6), rng.Intn(6))
	}
	want := goldenCounters{
		served: 80, messages: 7616, replacements: 1, searches: 1,
		monitorRescues: 1, maxEnergy: 11,
	}

	r := mustRunner(t, Options{Arena: arena, CubeSide: 6, Capacity: 30, Seed: 3})
	if _, err := r.Run(demand.NewSequence(jobs)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := r.ResetEpisode(failureInjectionOpts(arena)); err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(demand.NewSequence(jobs))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, res, want)
		// And back to a plain episode: the injection maps must be cleared
		// again, so re-arming with empty options keeps the run clean.
		if err := r.ResetEpisode(Options{Arena: arena, CubeSide: 6, Capacity: 30, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		res, err = r.Run(demand.NewSequence(jobs))
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK() || res.MonitorRescues != 0 {
			t.Fatalf("plain episode after injection episode leaked state: %+v", res)
		}
	}
}

// TestResetEpisodeValidation pins the geometry and input checks.
func TestResetEpisodeValidation(t *testing.T) {
	arena := grid.MustNew(6, 6)
	r := mustRunner(t, Options{Arena: arena, CubeSide: 6, Capacity: 14, Seed: 1})

	if err := r.ResetEpisode(Options{Arena: grid.MustNew(6, 6), CubeSide: 6, Capacity: 14}); err == nil {
		t.Error("different arena identity should fail")
	}
	if err := r.ResetEpisode(Options{Arena: arena, CubeSide: 3, Capacity: 14}); err == nil {
		t.Error("different cube side should fail")
	}
	otherPart, err := NewPartition(arena, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ResetEpisode(Options{Arena: arena, Partition: otherPart, Capacity: 14}); err == nil {
		t.Error("partition with different geometry should fail")
	}
	if err := r.ResetEpisode(Options{Arena: arena, CubeSide: 6, Capacity: 0}); err == nil {
		t.Error("non-positive capacity should fail")
	}
	if err := r.ResetEpisode(Options{
		Arena: arena, CubeSide: 6, Capacity: 14,
		Failure: &FailureModel{Longevity: map[grid.Point]float64{grid.P(1, 1): 2}},
	}); err == nil {
		t.Error("out-of-range longevity should fail")
	}
	// A same-geometry partition with a different pointer is interchangeable.
	samePart, err := NewPartition(arena, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ResetEpisode(Options{Arena: arena, Partition: samePart, Capacity: 14, Seed: 1}); err != nil {
		t.Errorf("same-geometry partition should be accepted: %v", err)
	}
	if r.Partition() == samePart {
		t.Error("runner should keep its own partition (neighbor lists point into it)")
	}
}

// TestPoolGetErrorsWarmEqualsCold pins that Pool.Get refuses malformed
// options with the same error whether or not the pool already holds a
// runner of their geometry: NewRunner and ResetEpisode share one geometry
// check and end in the same arm. So a capacity search's error does not
// depend on the searches that ran before it.
func TestPoolGetErrorsWarmEqualsCold(t *testing.T) {
	arena := grid.MustNew(4, 4)
	otherPart, err := NewPartition(grid.MustNew(4, 4), 2)
	if err != nil {
		t.Fatal(err)
	}
	side4, err := NewPartition(arena, 4)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewPool()
	for _, side := range []int{2, 4} {
		if _, err := warm.Get(Options{Arena: arena, CubeSide: side, Capacity: 5, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"Partition of another arena, CubeSide 2", Options{Arena: arena, CubeSide: 2, Partition: otherPart, Capacity: 5}},
		{"Partition of another arena, CubeSide 0", Options{Arena: arena, Partition: otherPart, Capacity: 5}},
		{"side-4 Partition, CubeSide 2", Options{Arena: arena, CubeSide: 2, Partition: side4, Capacity: 5}},
		{"capacity 0", Options{Arena: arena, CubeSide: 2}},
		{"fanout without gossip", Options{Arena: arena, CubeSide: 4, Capacity: 5, GossipFanout: 2}},
		{"longevity 2", Options{Arena: arena, CubeSide: 2, Capacity: 5,
			Failure: &FailureModel{Longevity: map[grid.Point]float64{grid.P(1, 1): 2}}}},
	} {
		if warm.runners[poolKey{tc.opts.Arena, tc.opts.side()}] == nil {
			t.Fatalf("%s: the warm pool holds no runner of this geometry", tc.name)
		}
		_, coldErr := NewPool().Get(tc.opts)
		_, warmErr := warm.Get(tc.opts)
		if coldErr == nil || warmErr == nil || coldErr.Error() != warmErr.Error() {
			t.Errorf("%s: cold %v, warm %v; want the same error", tc.name, coldErr, warmErr)
		}
	}
}
