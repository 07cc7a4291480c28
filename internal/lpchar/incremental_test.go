package lpchar

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/demand"
	"repro/internal/grid"
)

// TestOmegaStarFlowMatchesPerRadiusFresh pins OmegaStarFlow — one pooled
// solver, one max-flow per radius test and Newton steps at the final radius
// only — against a reference that runs a fresh solver's full Value at every
// radius the bracket and bisection visit.
func TestOmegaStarFlowMatchesPerRadiusFresh(t *testing.T) {
	value := func(m *demand.Map, r int) float64 {
		t.Helper()
		s, err := NewSolver(m, r)
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.Value()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	refOmega := func(m *demand.Map) float64 {
		t.Helper()
		if m.Total() == 0 {
			return 0
		}
		hi := 1
		for value(m, hi) > float64(hi+1) {
			hi *= 2
			if int64(hi) > m.Max()+1 {
				break
			}
		}
		lo := 0
		for lo < hi {
			if mid := (lo + hi) / 2; value(m, mid) <= float64(mid+1) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return min(max(value(m, lo), float64(lo)), float64(lo+1))
	}
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 12; trial++ {
		dim := 1 + rng.Intn(2)
		m := randDemand(rng, dim, 6, 2+rng.Intn(5), 25)
		got, err := OmegaStarFlow(m)
		if err != nil {
			t.Fatal(err)
		}
		if want := refOmega(m); got != want {
			t.Fatalf("trial %d: OmegaStarFlow %v != per-radius fresh reference %v", trial, got, want)
		}
	}
	if v, err := OmegaStarFlow(demand.NewMap(2)); err != nil || v != 0 {
		t.Errorf("empty demand OmegaStarFlow = %v, %v", v, err)
	}
}

// TestSolverSecondValueAllocatesNothing pins the zero-allocation contract of
// a warm Value: after the first Value() on a bound solver, further calls —
// every max-flow and every witness read from a cut — stay off the heap.
func TestSolverSecondValueAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	m := randDemand(rng, 2, 6, 6, 30)
	s, err := NewSolver(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Value()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		v, err := s.Value()
		if err != nil {
			t.Fatal(err)
		}
		if v != first {
			t.Fatalf("repeat Value %v != first %v", v, first)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Value allocated %v times, want 0", allocs)
	}
}

// TestOmegaStarFlowWarmAllocs allows a warm OmegaStarFlow only its one
// support listing (demand.Map.Support's slice): the solver's network,
// supply index and ball buffers already hold every radius the search
// visits. It runs the search on one retained solver, the pooled one
// OmegaStarFlow draws, because the race detector makes sync.Pool drop
// items at random.
func TestOmegaStarFlowWarmAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	m := randDemand(rng, 2, 12, 20, 60)
	want, err := OmegaStarFlow(m)
	if err != nil {
		t.Fatal(err)
	}
	var s Solver
	if _, err := s.omegaStar(m, 1, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		v, err := s.omegaStar(m, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Fatalf("warm search %v != OmegaStarFlow %v", v, want)
		}
	})
	if allocs > 1 {
		t.Errorf("warm OmegaStarFlow allocated %v times, want at most 1", allocs)
	}
}

// TestFleetBoundWarmEqualsCold pins that a solver carries nothing from one
// LP (4.1) search into the next: one solver runs healthy, 0/1 and
// fractional fleet searches in turn on random 1-2-D instances, and each
// answer, or error, equals a fresh solver's bit for bit. The healthy
// answers also equal OmegaStarFlow's.
func TestFleetBoundWarmEqualsCold(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	var warm Solver
	for trial := 0; trial < 90; trial++ {
		dim := 1 + rng.Intn(2)
		m := randDemand(rng, dim, 6, 1+rng.Intn(5), 25)
		longevity := []func() float64{
			func() float64 { return 1 },
			func() float64 { return float64(rng.Intn(2)) },
			func() float64 { return []float64{0, 1, 1e-3, rng.Float64()}[rng.Intn(4)] },
		}[trial%3]
		def := longevity()
		var over map[grid.Point]float64
		if trial%3 > 0 {
			over = map[grid.Point]float64{}
			for range rng.Intn(7) {
				var p grid.Point
				for a := 0; a < dim; a++ {
					p[a] = int32(rng.Intn(13) - 3)
				}
				over[p] = longevity()
			}
		}
		cold, coldErr := new(Solver).omegaStar(m, def, over)
		got, err := warm.omegaStar(m, def, over)
		if got != cold || fmt.Sprint(err) != fmt.Sprint(coldErr) {
			t.Fatalf("trial %d (default %v, %d listed): warm %v, %v; fresh %v, %v",
				trial, def, len(over), got, err, cold, coldErr)
		}
		if trial%3 == 0 {
			if want, err := OmegaStarFlow(m); err != nil || got != want {
				t.Fatalf("trial %d: healthy fleet %v; OmegaStarFlow %v, %v", trial, got, want, err)
			}
		}
	}
}
