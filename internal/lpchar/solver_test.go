package lpchar

import (
	"errors"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/demand"
	"repro/internal/grid"
)

// FlowValue computes the exact value of LP (2.1) for radius r by binary
// search on omega with the max-flow feasibility oracle: one Solver
// construction plus ~60 warm probes on reset residual state.
func FlowValue(m *demand.Map, r int) (float64, error) {
	if m.Total() == 0 {
		return 0, nil
	}
	s := solverPool.Get().(*Solver)
	defer solverPool.Put(s)
	if err := s.Bind(m, r); err != nil {
		return 0, err
	}
	return s.Value()
}

// FeasibleAt reports whether capacity omega suffices for the bound instance:
// the transportation polytope of LP (2.1) with the given omega is nonempty.
// A warm probe rewrites only the source capacities and allocates nothing.
// This is the from-scratch oracle (Reset + MaxFlow from zero flow); Value()
// answers the same question through probe(), which skips the oracle when a
// retained cut already determines its verdict.
func (s *Solver) FeasibleAt(omega float64) (bool, error) {
	if s.total == 0 {
		return true, nil
	}
	if omega <= 0 {
		return false, nil
	}
	val, err := s.freshProbe(omega)
	if err != nil {
		return false, err
	}
	return s.saturated(val), nil
}

// coldFlowValue is the pre-solver reference implementation: binary search
// where every probe builds a fresh network (the shape FlowValue had before
// the warm-start refactor). Kept as the parity and benchmark baseline.
func coldFlowValue(t testing.TB, m *demand.Map, r int) float64 {
	t.Helper()
	if m.Total() == 0 {
		return 0
	}
	feasible := func(omega float64) bool {
		if omega <= 0 {
			return false
		}
		s, err := NewSolver(m, r) // fresh construction per probe = cold
		if err != nil {
			t.Fatal(err)
		}
		ok, err := s.FeasibleAt(omega)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	lo, hi := 0.0, float64(m.Max())
	for iter := 0; iter < 60 && hi-lo > 1e-9*math.Max(1, hi); iter++ {
		mid := (lo + hi) / 2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// TestSolverWarmEqualsCold pins warm ≡ cold at the lpchar layer on
// randomized instances: one Solver answering a whole probe schedule on reset
// residual state returns exactly what fresh construction per probe returns,
// and a Solver re-bound across instances matches a fresh Solver per
// instance.
func TestSolverWarmEqualsCold(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	var rebound Solver
	for trial := 0; trial < 25; trial++ {
		dim := 1 + rng.Intn(2)
		m := randDemand(rng, dim, 6, 2+rng.Intn(5), 25)
		r := rng.Intn(4)

		warm, err := NewSolver(m, r)
		if err != nil {
			t.Fatal(err)
		}
		// Probe schedule: the bisection's own probes plus extremes.
		for _, omega := range []float64{0, 0.3, 1, float64(m.Max()) / 2, float64(m.Max())} {
			warmOK, err := warm.FeasibleAt(omega)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := NewSolver(m, r)
			if err != nil {
				t.Fatal(err)
			}
			coldOK, err := cold.FeasibleAt(omega)
			if err != nil {
				t.Fatal(err)
			}
			if warmOK != coldOK {
				t.Fatalf("trial %d omega %v: warm %v != cold %v", trial, omega, warmOK, coldOK)
			}
		}
		warmV, err := warm.Value()
		if err != nil {
			t.Fatal(err)
		}
		if coldV := coldFlowValue(t, m, r); warmV != coldV {
			t.Fatalf("trial %d: warm value %v != cold %v (bit parity required)", trial, warmV, coldV)
		}
		// A re-bound solver (buffer reuse across instances) matches too.
		if err := rebound.Bind(m, r); err != nil {
			t.Fatal(err)
		}
		reV, err := rebound.Value()
		if err != nil {
			t.Fatal(err)
		}
		if reV != warmV {
			t.Fatalf("trial %d: rebound value %v != fresh %v", trial, reV, warmV)
		}
		// Value() is repeatable on the same solver: probes run on reset
		// residual state, so a second full bisection is bit-identical.
		again, err := warm.Value()
		if err != nil {
			t.Fatal(err)
		}
		if again != warmV {
			t.Fatalf("trial %d: second Value %v != first %v", trial, again, warmV)
		}
	}
}

// TestSolverMatchesFlowValue pins that the pooled one-shot path (FlowValue:
// a pooled solver rebound per call) agrees bit-for-bit with a fresh
// Solver.Value.
func TestSolverMatchesFlowValue(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		m := randDemand(rng, 2, 6, 4, 30)
		r := rng.Intn(4)
		s, err := NewSolver(m, r)
		if err != nil {
			t.Fatal(err)
		}
		sv, err := s.Value()
		if err != nil {
			t.Fatal(err)
		}
		fv, err := FlowValue(m, r)
		if err != nil {
			t.Fatal(err)
		}
		if sv != fv {
			t.Fatalf("trial %d: Solver.Value %v != FlowValue %v", trial, sv, fv)
		}
	}
}

// TestGoldenE4SeedGrid pins the refactored FlowValue and OmegaStarFlow to
// the bit-exact values the pre-refactor implementation produced on the E4
// seed grid (trials=10, seed=7 — the experiments test's instances). The
// golden hex floats were generated by the map-and-fresh-network
// implementation this PR retired; any drift here means the dense offset
// index or the warm probe path changed a result.
func TestGoldenE4SeedGrid(t *testing.T) {
	golden := [][2]string{
		{"0x1.3ffffffbp+04", "0x1p+02"},
		{"0x1.adb6db69p+02", "0x1.11745d148p+02"},
		{"0x1.1eb851e9p-01", "0x1p+01"},
		{"0x1.fffffff8p+00", "0x1.fffffff8p+00"},
		{"0x1.0ffffffep+02", "0x1.b333332c4p+01"},
		{"0x1.37fffffb2p+05", "0x1.1aaaaaa5ep+02"},
		{"0x1.3d37a6f2p+00", "0x1.071c71bfp+01"},
		{"0x1.7ffffff4p+03", "0x1p+01"},
		{"0x1.2ffffffd4p+03", "0x1.2ffffffd4p+02"},
		{"0x1.7ffffff7p+01", "0x1p+01"},
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < len(golden); trial++ {
		// Instance generation replicated from experiments.E4Duality.
		dim := 1 + rng.Intn(2)
		m := demand.NewMap(dim)
		points := 2 + rng.Intn(5)
		for i := 0; i < points; i++ {
			var p grid.Point
			for a := 0; a < dim; a++ {
				p[a] = int32(rng.Intn(6))
			}
			if err := m.Add(p, 1+rng.Int63n(20)); err != nil {
				t.Fatal(err)
			}
		}
		r := rng.Intn(4)
		fv, err := FlowValue(m, r)
		if err != nil {
			t.Fatal(err)
		}
		ov, err := OmegaStarFlow(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := strconv.FormatFloat(fv, 'x', -1, 64); got != golden[trial][0] {
			t.Errorf("trial %d: FlowValue %s != pre-refactor %s", trial, got, golden[trial][0])
		}
		if got := strconv.FormatFloat(ov, 'x', -1, 64); got != golden[trial][1] {
			t.Errorf("trial %d: OmegaStarFlow %s != pre-refactor %s", trial, got, golden[trial][1])
		}
	}
}

// TestSolverProbeAllocatesNothing pins the construction-free probe contract
// end to end: after the first probe, FeasibleAt performs zero allocations.
func TestSolverProbeAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	m := randDemand(rng, 2, 6, 6, 30)
	s, err := NewSolver(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.FeasibleAt(1.5); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.FeasibleAt(1.5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm FeasibleAt allocated %v times, want 0", allocs)
	}
}

// TestSolverSparseSpreadFallback pins that spatially spread supports — whose
// r-neighborhood bounding box is overwhelmingly padding — still solve (the
// index falls back to a map, as the pre-refactor path effectively was) and
// agree with a compact instance of identical geometry: two disjoint unit
// balls give the same LP value whether 20 or 4000 cells apart.
func TestSolverSparseSpreadFallback(t *testing.T) {
	build := func(far int32) *demand.Map {
		m := demand.NewMap(2)
		if err := m.Add(grid.P(0, 0), 5); err != nil {
			t.Fatal(err)
		}
		if err := m.Add(grid.Point{far, far}, 5); err != nil {
			t.Fatal(err)
		}
		return m
	}
	compact, spread := build(10), build(2100)
	var s Solver
	if err := s.Bind(spread, 1); err != nil {
		t.Fatalf("spread support must not fail: %v", err)
	}
	if s.sup.dense {
		t.Fatal("spread instance should take the sparse fallback")
	}
	spreadV, err := s.Value()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Bind(compact, 1); err != nil {
		t.Fatal(err)
	}
	if !s.sup.dense {
		t.Fatal("compact instance should take the dense index")
	}
	compactV, err := s.Value()
	if err != nil {
		t.Fatal(err)
	}
	if spreadV != compactV {
		t.Errorf("spread value %v != compact %v (identical disjoint-ball geometry)", spreadV, compactV)
	}
	// The subset closed form must agree on the spread instance too
	// (its cover pass takes the same fallback).
	subsetV, err := SubsetValue(spread, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(spreadV-subsetV) > 1e-6*math.Max(1, subsetV) {
		t.Errorf("spread flow %v != subset %v", spreadV, subsetV)
	}
}

// TestSolverVolumeOverflowTakesSparsePath is the regression test for the
// int64 box-volume overflow: a 3-D support spread so wide that its
// r-neighborhood bounding-box volume wraps negative must take the map
// fallback (not panic in the dense branch) and still produce the value of
// its compact disjoint-ball twin.
func TestSolverVolumeOverflowTakesSparsePath(t *testing.T) {
	build := func(far int32) *demand.Map {
		m := demand.NewMap(3)
		if err := m.Add(grid.P(0, 0, 0), 4); err != nil {
			t.Fatal(err)
		}
		if err := m.Add(grid.Point{far, far, far}, 4); err != nil {
			t.Fatal(err)
		}
		return m
	}
	spread := build(2097150) // (2*far+3)^3 overflows int64
	var s Solver
	if err := s.Bind(spread, 1); err != nil {
		t.Fatalf("overflowing bounding box must not fail: %v", err)
	}
	if s.sup.dense {
		t.Fatal("overflowing volume must take the sparse fallback")
	}
	spreadV, err := s.Value()
	if err != nil {
		t.Fatal(err)
	}
	compactV, err := FlowValue(build(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	if spreadV != compactV {
		t.Errorf("spread value %v != compact %v (identical disjoint-ball geometry)", spreadV, compactV)
	}
	if _, err := SubsetValue(spread, 1); err != nil {
		t.Errorf("SubsetValue on overflowing box: %v", err)
	}
}

// TestSolverBindEmptyClearsState: rebinding to an empty demand must not keep
// the previous instance's suppliers.
func TestSolverBindEmptyClearsState(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	m := randDemand(rng, 2, 6, 6, 30)
	s, err := NewSolver(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.sup.suppliers) == 0 {
		t.Fatal("nonempty instance should have suppliers")
	}
	if err := s.Bind(demand.NewMap(2), 3); err != nil {
		t.Fatal(err)
	}
	if got := len(s.sup.suppliers); got != 0 {
		t.Errorf("Suppliers after empty rebind = %d, want 0", got)
	}
	if v, err := s.Value(); err != nil || v != 0 {
		t.Errorf("empty rebind Value = %v, %v", v, err)
	}
}

// TestSolverEmptyDemand checks the degenerate instance.
func TestSolverEmptyDemand(t *testing.T) {
	s, err := NewSolver(demand.NewMap(2), 3)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := s.FeasibleAt(0); err != nil || !ok {
		t.Errorf("empty demand FeasibleAt = %v, %v", ok, err)
	}
	if v, err := s.Value(); err != nil || v != 0 {
		t.Errorf("empty demand Value = %v, %v", v, err)
	}
}

// TestSolverRejectsUnlistableRadius pins the radius limit: Bind and
// SubsetValue refuse a radius whose ball the supply index cannot list with
// ErrTooLarge, the solver is left as it was, the largest
// accepted radius per dimension sits far above the ones in use (64 in 1-D,
// 32 in 2-D, 1 in 3-D), and an accepted radius is checked without
// allocating.
func TestSolverRejectsUnlistableRadius(t *testing.T) {
	m, err := demand.PointMass(2, grid.P(0, 0), 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Value()
	if err != nil {
		t.Fatal(err)
	}
	_, subsetErr := SubsetValue(m, 1<<24)
	for _, err := range []error{s.Bind(m, 1<<32), subsetErr} {
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("got %v, want ErrTooLarge", err)
		}
	}
	if got, err := s.Value(); err != nil || got != want || s.r != 2 {
		t.Errorf("after rejected radii: Value %v, %v at radius %d; want %v at 2", got, err, s.r, want)
	}
	for dim, maxR := range map[int]int{1: 2097151, 2: 1023, 3: 80, 4: 22} {
		if CheckRadius(dim, maxR) != nil || !errors.Is(CheckRadius(dim, maxR+1), ErrTooLarge) {
			t.Errorf("%d-D: largest accepted radius is not %d", dim, maxR)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = CheckRadius(4, 22) }); allocs != 0 {
		t.Errorf("accepted radius check allocated %v times, want 0", allocs)
	}
}
