package online

import (
	"math/rand"
	"testing"

	"repro/internal/demand"
	"repro/internal/grid"
)

// The golden counters below were captured from the map-keyed simulator that
// preceded the dense arena-indexed core, on the exact scenarios of this
// file. The dense refactor reproduces them bit for bit: any drift in these
// values means the delivery schedule (and hence every fixed-seed experiment
// of DESIGN.md's "Experiment index", as `go run ./cmd/experiments` prints
// it) has silently changed.

type goldenCounters struct {
	served         int64
	messages       int64
	replacements   int64
	searches       int64
	searchFailures int64
	monitorRescues int64
	maxEnergy      float64
	failures       int
}

func checkGolden(t *testing.T, res *Result, want goldenCounters) {
	t.Helper()
	got := goldenCounters{
		served:         res.Served,
		messages:       res.Messages,
		replacements:   res.Replacements,
		searches:       res.Searches,
		searchFailures: res.SearchFailures,
		monitorRescues: res.MonitorRescues,
		maxEnergy:      res.MaxEnergy,
		failures:       len(res.Failures),
	}
	if got != want {
		t.Errorf("golden counters drifted:\n got %+v\nwant %+v", got, want)
	}
}

// TestGoldenTraceHotPoint locks the fixed-seed schedule of a replacement-
// heavy run: one hot point exhausting vehicles in a single 8x8 cube.
func TestGoldenTraceHotPoint(t *testing.T) {
	arena := grid.MustNew(8, 8)
	jobs := make([]grid.Point, 60)
	for i := range jobs {
		jobs[i] = grid.P(4, 4)
	}
	run := func() *Result {
		r := mustRunner(t, Options{Arena: arena, CubeSide: 8, Capacity: 24, Seed: 1})
		res, err := r.Run(demand.NewSequence(jobs))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := goldenCounters{
		served: 60, messages: 1310, replacements: 2, searches: 2,
		maxEnergy: 23,
	}
	checkGolden(t, run(), want)
	// Same seed, fresh runner: bit-for-bit identical.
	checkGolden(t, run(), want)
}

// TestGoldenTraceFailureInjection locks the schedule of a run exercising
// every failure-injection path at once: monitoring, fail-initiate vehicles,
// a mid-sequence death, and Chapter 4 longevity breakdowns.
func TestGoldenTraceFailureInjection(t *testing.T) {
	arena := grid.MustNew(6, 6)
	rng := rand.New(rand.NewSource(42))
	jobs := make([]grid.Point, 80)
	for i := range jobs {
		jobs[i] = grid.P(rng.Intn(6), rng.Intn(6))
	}
	r := mustRunner(t, Options{
		Arena: arena, CubeSide: 6, Capacity: 20, Seed: 9, Monitoring: true,
		Failure: &FailureModel{
			FailInitiate:      map[grid.Point]bool{grid.P(0, 0): true, grid.P(3, 3): true},
			DeadBeforeArrival: map[grid.Point]int{grid.P(2, 2): 10},
			Longevity:         map[grid.Point]float64{grid.P(5, 5): 0.5, grid.P(1, 4): 0},
		},
	})
	res, err := r.Run(demand.NewSequence(jobs))
	if err != nil {
		t.Fatal(err)
	}
	checkPairOwnership(t, r)
	checkGolden(t, res, goldenCounters{
		served: 80, messages: 7616, replacements: 1, searches: 1,
		monitorRescues: 1, maxEnergy: 11,
	})
}

// TestGoldenMinCapacity locks the serial capacity search's answer on the
// hot-point workload (the probes are fixed-seed runs, so the bisection path
// is fully deterministic).
func TestGoldenMinCapacity(t *testing.T) {
	arena := grid.MustNew(8, 8)
	jobs := make([]grid.Point, 60)
	for i := range jobs {
		jobs[i] = grid.P(4, 4)
	}
	seq := demand.NewSequence(jobs)
	won, err := MinCapacity(seq, Options{Arena: arena, CubeSide: 8, Seed: 1}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if won != 7.0625 {
		t.Errorf("serial MinCapacity = %v, want golden 7.0625", won)
	}
}

// TestGoldenResetMatchesFresh is the warm-start contract test: a Runner
// that is Reset and re-run must be bit-for-bit identical to a freshly
// constructed one — same Served/Messages/Replacements/MonitorRescues — on
// both golden scenarios, including after intermediate runs at *different*
// capacities and seeds.
func TestGoldenResetMatchesFresh(t *testing.T) {
	t.Run("hot-point", func(t *testing.T) {
		arena := grid.MustNew(8, 8)
		jobs := make([]grid.Point, 60)
		for i := range jobs {
			jobs[i] = grid.P(4, 4)
		}
		want := goldenCounters{
			served: 60, messages: 1310, replacements: 2, searches: 2,
			maxEnergy: 23,
		}
		r := mustRunner(t, Options{Arena: arena, CubeSide: 8, Capacity: 24, Seed: 1})
		res, err := r.Run(demand.NewSequence(jobs))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, res, want)
		// Perturb the runner with episodes at other capacities and seeds,
		// then come back: the golden schedule must reappear exactly.
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
	})
	t.Run("failure-injection", func(t *testing.T) {
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
		r := mustRunner(t, Options{
			Arena: arena, CubeSide: 6, Capacity: 20, Seed: 9, Monitoring: true,
			Failure: &FailureModel{
				FailInitiate:      map[grid.Point]bool{grid.P(0, 0): true, grid.P(3, 3): true},
				DeadBeforeArrival: map[grid.Point]int{grid.P(2, 2): 10},
				Longevity:         map[grid.Point]float64{grid.P(5, 5): 0.5, grid.P(1, 4): 0},
			},
		})
		res, err := r.Run(demand.NewSequence(jobs))
		if err != nil {
			t.Fatal(err)
		}
		checkPairOwnership(t, r)
		checkGolden(t, res, want)
		// Monitoring, dead events, and longevity breakdowns all have cursor
		// or per-vehicle state that Reset must restore.
		for i := 0; i < 2; i++ {
			if err := r.Reset(20, 9); err != nil {
				t.Fatal(err)
			}
			res, err = r.Run(demand.NewSequence(jobs))
			if err != nil {
				t.Fatal(err)
			}
			checkPairOwnership(t, r)
			checkGolden(t, res, want)
		}
	})
}

// TestGoldenSharedPartition pins that a runner built on a prebuilt shared
// Partition replays the same golden schedule as one that builds its own.
func TestGoldenSharedPartition(t *testing.T) {
	arena := grid.MustNew(8, 8)
	part, err := NewPartition(arena, 8)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]grid.Point, 60)
	for i := range jobs {
		jobs[i] = grid.P(4, 4)
	}
	want := goldenCounters{
		served: 60, messages: 1310, replacements: 2, searches: 2,
		maxEnergy: 23,
	}
	for i := 0; i < 2; i++ {
		r := mustRunner(t, Options{
			Arena: arena, CubeSide: 8, Partition: part, Capacity: 24, Seed: 1,
		})
		res, err := r.Run(demand.NewSequence(jobs))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, res, want)
	}
}

// TestGoldenMinCapacityWarmEqualsCold pins that the warm-started search (one
// long-lived runner reset per probe) agrees exactly with cold per-probe
// construction.
func TestGoldenMinCapacityWarmEqualsCold(t *testing.T) {
	arena := grid.MustNew(8, 8)
	jobs := make([]grid.Point, 60)
	for i := range jobs {
		jobs[i] = grid.P(4, 4)
	}
	seq := demand.NewSequence(jobs)
	base := Options{Arena: arena, CubeSide: 8, Seed: 1}

	// Cold oracle: a fresh runner per probe, as the search did before the
	// warm-start restructure.
	cold := func(w float64) bool {
		opts := base
		opts.Capacity = w
		r := mustRunner(t, opts)
		res, err := r.Run(seq)
		if err != nil {
			t.Fatal(err)
		}
		return res.OK() && res.SearchFailures == 0
	}
	// Warm oracle: one runner reset per probe.
	warm := &prober{seq: seq, base: base}
	for _, w := range []float64{2, 4, 5, 6.5, 7.0625, 7.25, 8, 24} {
		ok, err := warm.probe(w)
		if err != nil {
			t.Fatal(err)
		}
		if want := cold(w); ok != want {
			t.Errorf("capacity %v: warm probe %v, cold probe %v", w, ok, want)
		}
	}

	if won, err := MinCapacity(seq, base, 0.05); err != nil || won != 7.0625 {
		t.Errorf("warm MinCapacity = %v, %v; want golden 7.0625", won, err)
	}
}
