package sweep

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/demand"
	"repro/internal/grid"
	"repro/internal/online"
)

// mixedScenarios builds a sweep that crosses geometry (two arenas, two cube
// sides), seeds, monitoring, and a failure injection — the scenario-grid
// shape the engine exists for. Workers pool runners per geometry and reset
// across everything else.
func mixedScenarios(t testing.TB) []Scenario {
	t.Helper()
	big := grid.MustNew(8, 8)
	small := grid.MustNew(6, 6)
	hotBig := make([]grid.Point, 40)
	for i := range hotBig {
		hotBig[i] = grid.P(4, 4)
	}
	hotSmall := make([]grid.Point, 30)
	for i := range hotSmall {
		hotSmall[i] = grid.P(2, 2)
	}
	var scs []Scenario
	for seed := int64(1); seed <= 3; seed++ {
		for _, monitoring := range []bool{false, true} {
			scs = append(scs,
				Scenario{
					Opts: online.Options{Arena: big, CubeSide: 8, Capacity: 24,
						Seed: seed, Monitoring: monitoring},
					Seq: demand.NewSequence(hotBig),
				},
				Scenario{
					Opts: online.Options{Arena: big, CubeSide: 4, Capacity: 24,
						Seed: seed, Monitoring: monitoring},
					Seq: demand.NewSequence(hotBig),
				},
				Scenario{
					Opts: online.Options{Arena: small, CubeSide: 6, Capacity: 14,
						Seed: seed, Monitoring: monitoring,
						Failure: &online.FailureModel{FailInitiate: map[grid.Point]bool{grid.P(0, 0): true}}},
					Seq: demand.NewSequence(hotSmall),
				})
		}
	}
	return scs
}

// TestEpisodesDeterministicAcrossWorkerCounts is the engine's core contract:
// the assembled result list is identical for every worker count (this test
// also runs under CI's -race over the mixed-geometry grid).
func TestEpisodesDeterministicAcrossWorkerCounts(t *testing.T) {
	scs := mixedScenarios(t)
	want, err := Episodes(Config{Workers: 1}, scs)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range want {
		if !res.OK() {
			t.Fatalf("baseline scenario failed: %+v", res.Failures[0])
		}
	}
	for _, workers := range []int{2, 4, 8, 0} {
		got, err := Episodes(Config{Workers: workers}, scs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Errorf("workers=%d scenario %d drifted:\n got %+v\nwant %+v",
					workers, i, got[i], want[i])
			}
		}
	}
}

// TestWorkerPoolReuse pins that a serial sweep over same-geometry scenarios
// builds exactly one runner and warm-resets it for every scenario after the
// first, while geometry changes rebuild.
func TestWorkerPoolReuse(t *testing.T) {
	arena := grid.MustNew(6, 6)
	jobs := make([]grid.Point, 20)
	for i := range jobs {
		jobs[i] = grid.P(2, 2)
	}
	seq := demand.NewSequence(jobs)
	var stats online.PoolStats
	sameShape := func(w *Worker, i int) (*online.Result, error) {
		res, err := w.Episode(online.Options{
			Arena: arena, CubeSide: 6, Capacity: 14, Seed: int64(i + 1),
		}, seq)
		stats = w.Pool().Stats()
		return res, err
	}
	if _, err := Run(Config{Workers: 1}, 5, sameShape); err != nil {
		t.Fatal(err)
	}
	if stats.Builds != 1 || stats.Resets != 4 {
		t.Errorf("same-shape sweep: stats = %+v, want 1 build / 4 resets", stats)
	}

	mixed := func(w *Worker, i int) (*online.Result, error) {
		res, err := w.Episode(online.Options{
			Arena: arena, CubeSide: []int{6, 3}[i%2], Capacity: 14, Seed: 1,
		}, seq)
		stats = w.Pool().Stats()
		return res, err
	}
	if _, err := Run(Config{Workers: 1}, 6, mixed); err != nil {
		t.Fatal(err)
	}
	if stats.Builds != 2 || stats.Resets != 4 {
		t.Errorf("mixed sweep: stats = %+v, want 2 builds / 4 resets", stats)
	}
}

// TestRunReportsLowestIndexedError pins the deterministic error contract for
// the serial path and that parallel sweeps surface a failure at all.
func TestRunReportsLowestIndexedError(t *testing.T) {
	boom := func(i int) error { return fmt.Errorf("scenario %d failed", i) }
	fail := func(_ *Worker, i int) (int, error) {
		if i == 2 || i == 5 {
			return 0, boom(i)
		}
		return i, nil
	}
	_, err := Run(Config{Workers: 1}, 8, fail)
	if err == nil || err.Error() != "scenario 2 failed" {
		t.Errorf("serial error = %v, want scenario 2's", err)
	}
	if _, err := Run(Config{Workers: 4}, 8, fail); err == nil {
		t.Error("parallel sweep should surface the failure")
	}
}

// TestRunEmptyAndWidthClamp covers the degenerate shapes.
func TestRunEmptyAndWidthClamp(t *testing.T) {
	got, err := Run(Config{Workers: 4}, 0, func(_ *Worker, i int) (int, error) {
		return 0, errors.New("must not be called")
	})
	if err != nil || len(got) != 0 {
		t.Errorf("empty sweep: %v, %v", got, err)
	}
	// More workers than scenarios clamps rather than spawning idle workers.
	vals, err := Run(Config{Workers: 16}, 3, func(_ *Worker, i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vals, []int{0, 1, 4}) {
		t.Errorf("vals = %v", vals)
	}
}
