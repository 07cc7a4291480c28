package grid

import (
	"math/rand"
	"testing"
)

func BenchmarkSolveOmega(b *testing.B) {
	box, err := NewBox(2, P(0, 0), P(7, 7))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SolveOmega(box, float64(1+i%100000))
	}
}

func BenchmarkPrefixSumBuild(b *testing.B) {
	g := MustNew(128, 128)
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, g.Len())
	for i := range vals {
		vals[i] = rng.Int63n(100)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tableOf(b, g, g.Bounds(), vals)
	}
}

func BenchmarkMaxCubeSum(b *testing.B) {
	g := MustNew(128, 128)
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, g.Len())
	for i := range vals {
		vals[i] = rng.Int63n(100)
	}
	ps := tableOf(b, g, g.Bounds(), vals)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ps.MaxCubeSum(1+i%64) <= 0 {
			b.Fatal("no positive cube sum")
		}
	}
}
