package bench

import (
	"math"
	"os"
	"slices"
	"testing"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Fatal("p90 of 99 samples was reported; it needs 100")
	}
	xs = append(xs, 100)
	p90, err := percentile(xs, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if p90 != 90 {
		t.Fatalf("p90 of 1..100 = %v, want 90", p90)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples was reported; it needs 20")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(data, n=4) gives these first and third quartiles.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 4, 7, 2, 9, 3, 8, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 6, 7, 8}, 5.25, 7.75},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestBatchRateIgnoresStalledBatch(t *testing.T) {
	ops := make([]int, 20)
	secs := make([]float64, 20)
	for i := range ops {
		ops[i], secs[i] = 100, 1
	}
	secs[7] = 10 // the host stalled during one batch
	if got := batchRate(ops, secs); got != 100 {
		t.Fatalf("batchRate = %v, want 100", got)
	}
	// Total over wall time would have read 2000/29.
}

func TestPerPass(t *testing.T) {
	// Two batches make one pass over the four inputs. The first batch of
	// the first pass is cold, the first batch of the second pass misses a
	// cache, and the second batch of the third pass holds a burst of
	// allocations. The per-place least counts are 20/2 and 32/2; the
	// per-place medians are 50/2 and 32/2, since the cold pass and the miss
	// fell on the same place.
	s := &session{w: &Workload{Inputs: 4, Batch: 2}}
	p := &phase{ops: []int{2, 2, 2, 2, 2, 2}}
	count := []uint64{50, 32, 70, 32, 20, 9000}
	if got := s.perPass(p, count, slices.Min[[]float64]); got != 13 {
		t.Fatalf("perPass with min = %v, want 13", got)
	}
	if got := s.perPass(p, count, median); got != 20.5 {
		t.Fatalf("perPass with median = %v, want 20.5", got)
	}
}

func TestFoldRawByPackage(t *testing.T) {
	f, err := os.Open("testdata/cpu-raw.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	shares, samples, err := foldRaw(f)
	if err != nil {
		t.Fatal(err)
	}
	if samples != 15 {
		t.Fatalf("samples = %d, want 15", samples)
	}
	// The math/rand leaf under demand goes to demand and the slices leaf
	// inlined into flow goes to flow; the sort leaf under encoding/json has
	// no caller outside the standard library and stays stdlib.
	want := map[string]int{
		"sim": 3, "runtime": 3, "other": 2, "grid": 1, "demand": 1, "flow": 1,
		"sweep": 1, "stdlib": 1, "bench": 1, "cmvrp": 1,
	}
	sum := 0.0
	for layer, share := range shares {
		sum += share
		if n, ok := want[layer]; !ok || math.Abs(share-float64(n)/15) > 1e-12 {
			t.Errorf("cpu.%s = %v, want %d/15", layer, share, want[layer])
		}
	}
	if len(shares) != len(want) || math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares %v sum to %v over %d layers, want 1 over %d", shares, sum, len(shares), len(want))
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/flow.(*Network).MaxFlow":                       "flow",
		"repro/internal/sweep.Map[go.shape.string,go.shape.int].func1": "sweep",
		"repro/internal/render.Grid":                                   "other",
		"repro.MeasureWon":                                             "cmvrp",
		"repro/bench.(*session).client":                                "bench",
		"main.main":                                                    "bench",
		"runtime.mallocgc":                                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                 "runtime",
		"gcWriteBarrier":                                               "runtime",
		"sort.insertionSortCmpFunc[go.shape.float64]":                  "stdlib",
		"math/rand.(*rngSource).Uint64":                                "stdlib",
		"":                                                             "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
