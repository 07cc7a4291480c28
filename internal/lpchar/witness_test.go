package lpchar

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/demand"
	"repro/internal/grid"
)

// bruteWitness recomputes d(T) and |N_r(T)| for a subset T of m's support
// without the supply index: it scans the bounding box of each point's ball
// and collects the points within distance r in a set.
func bruteWitness(t *testing.T, m *demand.Map, r int, T []grid.Point) (sum, neigh int64) {
	t.Helper()
	ball := map[grid.Point]bool{}
	for _, q := range T {
		sum += m.At(q)
		b, err := grid.NewBox(m.Dim(), q, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range b.Expand(r).Points() {
			if grid.Manhattan(p, q) <= r {
				ball[p] = true
			}
		}
	}
	return sum, int64(len(ball))
}

// TestValueWitnessBruteForce checks Value's final witness T against brute
// force on every E4 instance (seeds 7 and 2008) and on random 1-3-D supports
// of 19-60 points, past SubsetValue's 18-point limit: d(T) and |N_r(T)| equal
// their recomputation and the value is exactly d(T)/|N_r(T)|, which Lemma
// 2.2.2 makes a lower bound on LP (2.1), and the float reference finds that
// value feasible, which bounds LP (2.1) from above.
func TestValueWitnessBruteForce(t *testing.T) {
	check := func(name string, m *demand.Map, r int) {
		t.Helper()
		s, err := NewSolver(m, r)
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.Value()
		if err != nil {
			t.Fatal(err)
		}
		support := m.Support()
		T := make([]grid.Point, len(s.witness))
		for i, j := range s.witness {
			T[i] = support[j]
		}
		sum, neigh := bruteWitness(t, m, r, T)
		if sum != s.witnessSum || float64(neigh) != s.witnessWeight || v != float64(sum)/float64(neigh) {
			t.Fatalf("%s r=%d: value %v with witness d(T)=%d |N_r(T)|=%v; brute force %d/%d over %d points",
				name, r, v, s.witnessSum, s.witnessWeight, sum, neigh, len(T))
		}
		if ok, err := s.FeasibleAt(v); err != nil || !ok {
			t.Fatalf("%s r=%d: value %v infeasible for the float reference (%v)", name, r, v, err)
		}
	}
	for _, e4 := range []struct {
		seed   int64
		trials int
	}{{7, 10}, {2008, 25}} {
		for trial, in := range e4Instances(t, e4.seed, e4.trials) {
			check("E4 seed "+strconv.FormatInt(e4.seed, 10)+" trial "+strconv.Itoa(trial), in.m, in.r)
		}
	}
	rng := rand.New(rand.NewSource(113))
	extent := []int{0, 80, 10, 5}
	for trial := 0; trial < 60; trial++ {
		dim := 1 + trial%3
		points := 19 + rng.Intn(42)
		m := demand.NewMap(dim)
		for m.SupportSize() < points {
			var p grid.Point
			for a := 0; a < dim; a++ {
				p[a] = int32(rng.Intn(extent[dim]))
			}
			if err := m.Add(p, 1+rng.Int63n(30)); err != nil {
				t.Fatal(err)
			}
		}
		check("random trial "+strconv.Itoa(trial), m, rng.Intn(4))
	}
}
