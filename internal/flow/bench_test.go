package flow

import (
	"math"
	"testing"
)

// buildBipartite assembles the LP (2.1) feasibility oracle's shape: a k x k
// supplier/demand bipartite graph with local connectivity.
func buildBipartite(k int) (*Network, error) {
	nw, err := NewNetwork(2 + 2*k)
	if err != nil {
		return nil, err
	}
	for i := 0; i < k; i++ {
		if _, err := nw.AddEdge(0, 1+i, 3.5); err != nil {
			return nil, err
		}
		if _, err := nw.AddEdge(1+k+i, 1+2*k, 3.0); err != nil {
			return nil, err
		}
		for d := -2; d <= 2; d++ {
			j := i + d
			if j >= 0 && j < k {
				if _, err := nw.AddEdge(1+i, 1+k+j, math.Inf(1)); err != nil {
					return nil, err
				}
			}
		}
	}
	return nw, nil
}

// BenchmarkDinicGridBipartite is the cold path: build + solve per iteration.
func BenchmarkDinicGridBipartite(b *testing.B) {
	const k = 400
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nw, err := buildBipartite(k)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := nw.MaxFlow(0, 1+2*k); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDinicGridBipartiteWarm is the warm path: one retained network,
// Reset + MaxFlow per iteration — the per-probe cost of a capacity search.
func BenchmarkDinicGridBipartiteWarm(b *testing.B) {
	const k = 400
	nw, err := buildBipartite(k)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Reset()
		if _, err := nw.MaxFlow(0, 1+2*k); err != nil {
			b.Fatal(err)
		}
	}
}
