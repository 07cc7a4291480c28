package cmvrp

// One benchmark per reproduced thesis artifact E1..E10 (see DESIGN.md's
// "Experiment index"; `go run ./cmd/experiments` prints the tables), plus
// ablation benchmarks for the design choices DESIGN.md calls out. Each
// bench drives the same code path as cmd/experiments, so `go test -bench=.`
// regenerates the published evidence.

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/baseline"
	"repro/internal/demand"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/lpchar"
	"repro/internal/offline"
	"repro/internal/online"
)

func benchTable(b *testing.B, build func() (*experiments.Table, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := build()
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkE1SquareScaling regenerates Example 1 / Fig 2.1(a).
func BenchmarkE1SquareScaling(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E1Square([]int{4, 16, 64, 256}, 32)
	})
}

// BenchmarkE2LineScaling regenerates Example 2 / Fig 2.1(b)+2.2.
func BenchmarkE2LineScaling(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E2Line([]int64{8, 32, 128, 512}, 256)
	})
}

// BenchmarkE3PointScaling regenerates Example 3 / Fig 2.1(c)+2.3.
func BenchmarkE3PointScaling(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E3Point([]int64{64, 1024, 16384, 262144})
	})
}

// BenchmarkE4LPDuality regenerates the Lemma 2.2.1-2.2.3 verification.
func BenchmarkE4LPDuality(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E4Duality(10, 2008, 1)
	})
}

// BenchmarkE5ApproxQuality regenerates the Theorem 1.4.1 / Algorithm 1
// approximation measurement.
func BenchmarkE5ApproxQuality(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E5ApproxQuality(32, 800, 2008, 1)
	})
}

// BenchmarkE6Alg1Runtime times Algorithm 1 directly at several arena sizes
// (the Section 2.3 linear-time claim): ns/op should scale with n^2.
func BenchmarkE6Alg1Runtime(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512} {
		b.Run(sizeName(n), func(b *testing.B) {
			arena := grid.MustNew(n, n)
			rng := rand.New(rand.NewSource(2008))
			inner, err := grid.NewBox(2, grid.P(n/4, n/4), grid.P(3*n/4-1, 3*n/4-1))
			if err != nil {
				b.Fatal(err)
			}
			m, err := demand.Uniform(rng, inner, int64(n)*int64(n))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := offline.Algorithm1(m, arena); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveOffline times the full public offline pipeline —
// characterize, estimate, construct, verify — which since the warm-start LP
// core densifies the demand exactly once and characterizes once.
func BenchmarkSolveOffline(b *testing.B) {
	arena := grid.MustNew(64, 64)
	rng := rand.New(rand.NewSource(2008))
	inner, err := grid.NewBox(2, grid.P(16, 16), grid.P(47, 47))
	if err != nil {
		b.Fatal(err)
	}
	m, err := demand.Uniform(rng, inner, 3000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveOffline(m, arena); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7OnlineVsOffline regenerates the Theorem 1.4.2 measurement.
func BenchmarkE7OnlineVsOffline(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E7Online(8, 80, 2008, 1, 0)
	})
}

// BenchmarkE8DiffusionCost regenerates the Algorithm 2 message-complexity
// measurement.
func BenchmarkE8DiffusionCost(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E8Diffusion([]int{2, 4, 6, 8}, 2008, 0)
	})
}

// BenchmarkE9BrokenGap regenerates the Figure 4.1 gap measurement.
func BenchmarkE9BrokenGap(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E9Broken([]int{2, 4, 8, 16})
	})
}

// BenchmarkE10Transfers regenerates the Chapter 5 convoy measurement.
func BenchmarkE10Transfers(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E10Transfers([]int{128, 512, 2048}, 2500)
	})
}

// BenchmarkE11Ablations regenerates the cube-granularity and monitoring
// ablation table.
func BenchmarkE11Ablations(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E11Ablations(8, 80, 2008, 1, 0)
	})
}

// BenchmarkE12DimensionSweep regenerates the dimension-constant table
// (thesis Chapter 6's open question).
func BenchmarkE12DimensionSweep(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E12DimensionSweep(4000)
	})
}

// BenchmarkE13Robustness regenerates the failure-robustness sweep
// (Section 3.2.5 scenario 2).
func BenchmarkE13Robustness(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E13Robustness([]float64{0, 0.5, 1}, 2008, 1, 0)
	})
}

// --- Ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationCubeGranularity compares the exact all-sizes cube sweep
// against Algorithm 1's power-of-two doubling: the doubling loses at most a
// factor 2 in omega while scanning exponentially fewer sizes.
func BenchmarkAblationCubeGranularity(b *testing.B) {
	arena := grid.MustNew(64, 64)
	rng := rand.New(rand.NewSource(2008))
	inner, err := grid.NewBox(2, grid.P(16, 16), grid.P(47, 47))
	if err != nil {
		b.Fatal(err)
	}
	m, err := demand.Clusters(rng, inner, 4, 800, 4)
	if err != nil {
		b.Fatal(err)
	}
	d, err := offline.NewDense(m, arena)
	if err != nil {
		b.Fatal(err)
	}
	ps := d.Prefix()
	b.Run("all-sizes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lpchar.OmegaStarCubesPS(ps); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("doubling", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lpchar.OmegaStarCubesDoublingPS(ps); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationMonitoring measures the heartbeat ring's message
// overhead: the same workload with and without Section 3.2.5 monitoring.
func BenchmarkAblationMonitoring(b *testing.B) {
	arena := grid.MustNew(8, 8)
	jobs := make([]grid.Point, 40)
	for i := range jobs {
		jobs[i] = grid.P(4, 4)
	}
	seq := demand.NewSequence(jobs)
	for _, monitoring := range []bool{false, true} {
		name := "off"
		if monitoring {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := online.NewRunner(online.Options{
					Arena: arena, CubeSide: 4, Capacity: 20, Seed: 2008,
					Monitoring: monitoring,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := r.Run(seq)
				if err != nil {
					b.Fatal(err)
				}
				if !res.OK() {
					b.Fatal("run failed")
				}
			}
		})
	}
}

// BenchmarkAblationGreedyVsStrategy compares the capacity search cost of
// the centralized greedy dispatcher against the thesis' distributed
// strategy on an adversarial point workload.
func BenchmarkAblationGreedyVsStrategy(b *testing.B) {
	arena := grid.MustNew(8, 8)
	jobs := make([]grid.Point, 60)
	for i := range jobs {
		jobs[i] = grid.P(4, 4)
	}
	seq := demand.NewSequence(jobs)
	b.Run("greedy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := baseline.GreedyMinCapacity(seq, arena, 0.05); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("thesis-online", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, err := online.MinCapacity(seq, online.Options{
				Arena: arena, CubeSide: 4, Seed: 2008,
			}, 1, 0.05)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

func sizeName(n int) string {
	return "n=" + strconv.Itoa(n)
}
