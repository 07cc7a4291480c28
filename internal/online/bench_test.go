package online

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/demand"
	"repro/internal/grid"
	"repro/internal/offline"
)

// BenchmarkOnlineRun times a full online episode with steady replacement
// pressure: a hot point exhausting vehicles in one cube.
func BenchmarkOnlineRun(b *testing.B) {
	arena := grid.MustNew(8, 8)
	jobs := make([]grid.Point, 60)
	for i := range jobs {
		jobs[i] = grid.P(4, 4)
	}
	seq := demand.NewSequence(jobs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := NewRunner(Options{Arena: arena, CubeSide: 8, Capacity: 24, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		res, err := r.Run(seq)
		if err != nil {
			b.Fatal(err)
		}
		if !res.OK() {
			b.Fatalf("run failed: %v", res.Failures[0])
		}
	}
}

// BenchmarkOnlineRunMonitoring measures the monitoring ring's overhead on
// the same workload.
func BenchmarkOnlineRunMonitoring(b *testing.B) {
	arena := grid.MustNew(8, 8)
	jobs := make([]grid.Point, 60)
	for i := range jobs {
		jobs[i] = grid.P(4, 4)
	}
	seq := demand.NewSequence(jobs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := NewRunner(Options{
			Arena: arena, CubeSide: 8, Capacity: 24, Seed: 1, Monitoring: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := r.Run(seq)
		if err != nil {
			b.Fatal(err)
		}
		if !res.OK() {
			b.Fatalf("run failed: %v", res.Failures[0])
		}
	}
}

// BenchmarkMinCapacity times the capacity search, one warm runner reset per
// probe, on two instances. "hot-point" is the golden instance, whose
// infeasible probes lose their jobs near the end of the sequence, so
// stopping them at their first failure saves little. "won-search" is shaped
// like the end-to-end benchmark's won-search workload: 300 shuffled
// clustered arrivals on the central 8x8 box of a 16x16 arena, cube side
// from omega_c, whose infeasible probes fail early.
func BenchmarkMinCapacity(b *testing.B) {
	b.Run("hot-point", func(b *testing.B) {
		arena, seq := hotPointSeq(60)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := MinCapacity(seq, Options{Arena: arena, CubeSide: 8, Seed: 1}, 1, 0.05); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("won-search", func(b *testing.B) {
		arena := grid.MustNew(16, 16)
		box, err := grid.NewBox(2, grid.P(4, 4), grid.P(11, 11))
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		m, err := demand.Clusters(rng, box, 4, 75, 1)
		if err != nil {
			b.Fatal(err)
		}
		char, err := offline.OmegaC(m, arena)
		if err != nil {
			b.Fatal(err)
		}
		seq, err := demand.SequenceOf(m, demand.OrderShuffled, rng)
		if err != nil {
			b.Fatal(err)
		}
		opts := Options{Arena: arena, CubeSide: char.Side, Seed: rng.Int63()}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := MinCapacity(seq, opts, 1, 0.05); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPartitionBuild times the static geometry construction.
func BenchmarkPartitionBuild(b *testing.B) {
	arena := grid.MustNew(64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewPartition(arena, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlineRunWarm is BenchmarkOnlineRun on one long-lived runner
// reset per iteration — the steady state of the warm-started capacity
// search, with all construction (partition, vehicles, engines, mailboxes)
// amortized away.
func BenchmarkOnlineRunWarm(b *testing.B) {
	arena := grid.MustNew(8, 8)
	jobs := make([]grid.Point, 60)
	for i := range jobs {
		jobs[i] = grid.P(4, 4)
	}
	seq := demand.NewSequence(jobs)
	r, err := NewRunner(Options{Arena: arena, CubeSide: 8, Capacity: 24, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 {
			if err := r.Reset(24, 1); err != nil {
				b.Fatal(err)
			}
		}
		res, err := r.Run(seq)
		if err != nil {
			b.Fatal(err)
		}
		if !res.OK() {
			b.Fatalf("run failed: %v", res.Failures[0])
		}
	}
}

// BenchmarkOnlineRunMonitoringWarm is BenchmarkOnlineRunMonitoring on one
// long-lived runner reset per episode — the sweep engine's steady state for
// monitored scenarios. With inline round/existing messages written straight
// into mailbox slots and the reused heard maps, the per-arrival monitoring
// waves allocate nothing.
func BenchmarkOnlineRunMonitoringWarm(b *testing.B) {
	arena := grid.MustNew(8, 8)
	jobs := make([]grid.Point, 60)
	for i := range jobs {
		jobs[i] = grid.P(4, 4)
	}
	seq := demand.NewSequence(jobs)
	r, err := NewRunner(Options{
		Arena: arena, CubeSide: 8, Capacity: 24, Seed: 1, Monitoring: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 {
			if err := r.Reset(24, 1); err != nil {
				b.Fatal(err)
			}
		}
		res, err := r.Run(seq)
		if err != nil {
			b.Fatal(err)
		}
		if !res.OK() {
			b.Fatalf("run failed: %v", res.Failures[0])
		}
	}
}

// BenchmarkOnlineRunSearchHeavyWarm is a warm episode in the style of the
// end-to-end benchmark's episode-sweep workload: 1000 uniform jobs on the
// central 16x16 box of a 32x32 arena, shuffled, at capacity 12*omega_c.
// Vehicles exhaust all over the box, so an episode runs dozens of Phase I
// searches and Phase II moves where the hot-point benchmarks run two: this
// is the benchmark whose allocs/op shows a per-search or per-move cost.
func BenchmarkOnlineRunSearchHeavyWarm(b *testing.B) {
	arena := grid.MustNew(32, 32)
	box, err := grid.NewBox(2, grid.P(8, 8), grid.P(23, 23))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	m, err := demand.Uniform(rng, box, 1000)
	if err != nil {
		b.Fatal(err)
	}
	char, err := offline.OmegaC(m, arena)
	if err != nil {
		b.Fatal(err)
	}
	seq, err := demand.SequenceOf(m, demand.OrderShuffled, rng)
	if err != nil {
		b.Fatal(err)
	}
	capacity := 12 * math.Max(char.Omega, 1)
	r, err := NewRunner(Options{Arena: arena, CubeSide: char.Side, Capacity: capacity, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	res, err := r.Run(seq) // cold run sizes every buffer
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Reset(capacity, 1); err != nil {
			b.Fatal(err)
		}
		if res, err = r.Run(seq); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Searches), "searches/op")
}
