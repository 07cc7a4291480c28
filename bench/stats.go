package bench

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: p90 needs 100 samples, p50 needs 20.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1). It
// refuses when fewer than minBeyond samples lie above the rank, because such
// a tail percentile is set by a handful of operations.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	// The tolerance keeps q*n from rounding up past a whole rank.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("bench: p%g needs %d samples beyond it, have %d samples",
			100*q, minBeyond, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle of xs, averaging the two middle values of an
// even count; 0 for no values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) ("exclusive"), so the spreads this
// package reports are the ones that function gives. One value is its own
// quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the distance between the quartiles of xs as a share of their
// median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(m)
}

// batchRate is the median of per-batch throughputs (ops/seconds of each
// batch). Unlike total ops over total wall time, one batch stalled by the
// host does not move it.
func batchRate(ops []int, seconds []float64) float64 {
	rates := make([]float64, len(ops))
	for i := range ops {
		rates[i] = float64(ops[i]) / seconds[i]
	}
	return median(rates)
}
