package sweep

import (
	"runtime"
	"testing"

	"repro/internal/demand"
	"repro/internal/grid"
	"repro/internal/online"
)

// benchScenarios is a multi-seed sweep: 16 fixed-seed episodes of the
// hot-point workload on one geometry — the shape of a robustness or
// seed-sensitivity study. The plain variant is
// construction-bound (where warm pooling pays most); the monitored one is
// message-bound (where the zero-alloc rounds pay).
func benchScenarios(b *testing.B, monitoring bool) []Scenario {
	b.Helper()
	arena := grid.MustNew(8, 8)
	jobs := make([]grid.Point, 60)
	for i := range jobs {
		jobs[i] = grid.P(4, 4)
	}
	seq := demand.NewSequence(jobs)
	scs := make([]Scenario, 16)
	for i := range scs {
		scs[i] = Scenario{
			Opts: online.Options{
				Arena: arena, CubeSide: 8, Capacity: 24,
				Seed: int64(i + 1), Monitoring: monitoring,
			},
			Seq: seq,
		}
	}
	return scs
}

// eachVariant runs the benchmark body under "plain" and "monitored"
// sub-benchmarks.
func eachVariant(b *testing.B, body func(b *testing.B, scs []Scenario)) {
	for _, monitoring := range []bool{false, true} {
		name := "plain"
		if monitoring {
			name = "monitored"
		}
		b.Run(name, func(b *testing.B) {
			scs := benchScenarios(b, monitoring)
			b.ReportAllocs()
			b.ResetTimer()
			body(b, scs)
		})
	}
}

func requireOK(b *testing.B, results []*online.Result, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	for _, res := range results {
		if !res.OK() {
			b.Fatalf("scenario failed: %+v", res.Failures[0])
		}
	}
}

// BenchmarkSweepColdSerial is the pre-sweep experiments style: one fresh
// NewRunner per scenario, strictly serial — the baseline the engine
// replaces.
func BenchmarkSweepColdSerial(b *testing.B) {
	eachVariant(b, func(b *testing.B, scs []Scenario) {
		for i := 0; i < b.N; i++ {
			results := make([]*online.Result, len(scs))
			for j, sc := range scs {
				r, err := online.NewRunner(sc.Opts)
				if err != nil {
					b.Fatal(err)
				}
				res, err := r.Run(sc.Seq)
				if err != nil {
					b.Fatal(err)
				}
				results[j] = res
			}
			requireOK(b, results, nil)
		}
	})
}

// BenchmarkSweepWarmSerial is the engine at width 1: same serial order, but
// every scenario after the first warm-resets one pooled runner.
func BenchmarkSweepWarmSerial(b *testing.B) {
	eachVariant(b, func(b *testing.B, scs []Scenario) {
		for i := 0; i < b.N; i++ {
			results, err := Episodes(Config{Workers: 1}, scs)
			requireOK(b, results, err)
		}
	})
}

// BenchmarkSweepParallel is the engine at full width (runtime.NumCPU());
// on a 1-core host it degrades to the warm-serial number.
func BenchmarkSweepParallel(b *testing.B) {
	eachVariant(b, func(b *testing.B, scs []Scenario) {
		for i := 0; i < b.N; i++ {
			results, err := Episodes(Config{Workers: runtime.NumCPU()}, scs)
			requireOK(b, results, err)
		}
	})
}
