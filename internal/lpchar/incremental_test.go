package lpchar

import (
	"math/rand"
	"testing"

	"repro/internal/demand"
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
	if _, err := s.omegaStar(m); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		v, err := s.omegaStar(m)
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
