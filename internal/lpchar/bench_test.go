package lpchar

import (
	"math/rand"
	"testing"

	"repro/internal/demand"
	"repro/internal/grid"
)

func benchDemand(b *testing.B, points int) *demand.Map {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	m := demand.NewMap(2)
	for i := 0; i < points; i++ {
		p := grid.P(rng.Intn(10), rng.Intn(10))
		if err := m.Add(p, 1+rng.Int63n(30)); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// BenchmarkFlowValueCold times the float bisection Value replaced, every
// probe on a freshly built supply graph (coldFlowValue in solver_test).
func BenchmarkFlowValueCold(b *testing.B) {
	m := benchDemand(b, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		coldFlowValue(b, m, 3)
	}
}

// BenchmarkFlowValueWarm is the pooled one-shot path: one Bind of a retained
// Solver plus Value's few max-flows on reset residual state.
func BenchmarkFlowValueWarm(b *testing.B) {
	m := benchDemand(b, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FlowValue(m, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowValueRebound measures the sweep-worker steady state: one
// retained Solver re-bound per instance, so graph arrays and the offset
// index are reused across instances too.
func BenchmarkFlowValueRebound(b *testing.B) {
	m := benchDemand(b, 12)
	var s Solver
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Bind(m, 3); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Value(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOmegaStarFlow times the self-consistent program (2.8): one
// max-flow per radius of its bracket and bisection, then Value.
func BenchmarkOmegaStarFlow(b *testing.B) {
	m := benchDemand(b, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := OmegaStarFlow(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOmegaStarFlowLarge scales the self-consistent program to roughly
// ten times E4's support: 120 demand points over a 32x32 patch, where the
// bracket's large radii make the per-radius supply graphs expensive.
func BenchmarkOmegaStarFlowLarge(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	m := demand.NewMap(2)
	for i := 0; i < 120; i++ {
		p := grid.P(rng.Intn(32), rng.Intn(32))
		if err := m.Add(p, 1+rng.Int63n(30)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OmegaStarFlow(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubsetValue(b *testing.B) {
	m := benchDemand(b, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SubsetValue(m, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOmegaStarCubes(b *testing.B) {
	arena := grid.MustNew(64, 64)
	rng := rand.New(rand.NewSource(9))
	inner, err := grid.NewBox(2, grid.P(16, 16), grid.P(47, 47))
	if err != nil {
		b.Fatal(err)
	}
	m, err := demand.Uniform(rng, inner, 4000)
	if err != nil {
		b.Fatal(err)
	}
	ps := cubePrefix(b, m, arena)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OmegaStarCubesPS(ps); err != nil {
			b.Fatal(err)
		}
	}
}
