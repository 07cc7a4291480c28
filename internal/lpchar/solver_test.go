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

// Tolerances of the float bisection that Value replaced, kept as the
// reference: a probe saturates when its max flow covers the total demand
// within feasSlackRel relative and feasSlackAbs absolute slack, and the
// bisection stops after bisectMaxIters halvings or at a bracket of
// bisectTolRel*max(1, hi).
const (
	feasSlackRel   = 1e-9
	feasSlackAbs   = 1e-9
	bisectMaxIters = 60
	bisectTolRel   = 1e-9
)

// FeasibleAt reports whether capacity omega suffices for the bound instance,
// in the float form Value replaced: supply omega at every supplier, demand
// d_j on every sink edge, one max-flow from zero flow on the solver's
// network, and saturation within the feasibility slack.
func (s *Solver) FeasibleAt(omega float64) (bool, error) {
	if s.total == 0 {
		return true, nil
	}
	if omega <= 0 {
		return false, nil
	}
	s.nw.Reset()
	for _, id := range s.srcEdges {
		if err := s.nw.SetCapacity(id, omega); err != nil {
			return false, err
		}
	}
	for j, id := range s.sinkEdges {
		if err := s.nw.SetCapacity(id, float64(s.demands[j])); err != nil {
			return false, err
		}
	}
	val, err := s.nw.MaxFlow(0, s.sink)
	if err != nil {
		return false, err
	}
	total := float64(s.total)
	return val >= total*(1-feasSlackRel)-feasSlackAbs, nil
}

// coldFlowValue is the float bisection Value replaced, each probe on a
// freshly built network. TestSolverWarmEqualsCold holds Value within 2e-8 of
// it, and BenchmarkFlowValueCold times it.
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
// randomized instances: one Solver answers a probe schedule exactly as fresh
// construction per probe does, a Solver re-bound across instances returns a
// fresh Solver's Value bit for bit, a second Value repeats the first, and the
// value lies within 2e-8*max(1, value) of the float bisection reference.
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
		if ref := coldFlowValue(t, m, r); math.Abs(warmV-ref) > 2e-8*math.Max(1, warmV) {
			t.Fatalf("trial %d: value %v is not within 2e-8 of the bisection reference %v", trial, warmV, ref)
		}
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

// e4Instance is one trial of experiment E4: a demand and a radius.
type e4Instance struct {
	m *demand.Map
	r int
}

// e4Instances replicates experiments.E4Duality's draws: the first trials
// instances of its rng stream at seed.
func e4Instances(t testing.TB, seed int64, trials int) []e4Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	insts := make([]e4Instance, trials)
	for trial := range insts {
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
		insts[trial] = e4Instance{m: m, r: rng.Intn(4)}
	}
	return insts
}

// TestGoldenE4SeedGrid pins FlowValue and OmegaStarFlow bit for bit on the
// E4 seed grid (trials=10, seed=7 — the experiments test's instances). The
// LP values are Lemma 2.2.2's exact rationals d(T)/|N_r(T)|, rounded once.
func TestGoldenE4SeedGrid(t *testing.T) {
	golden := [][2]string{ // FlowValue, OmegaStarFlow; FlowValue's d(T)/|N_r(T)|
		{"0x1.4p+04", "0x1p+02"},                           // 20/1
		{"0x1.adb6db6db6db7p+02", "0x1.11745d1745d17p+02"}, // 47/7
		{"0x1.1eb851eb851ecp-01", "0x1p+01"},               // 14/25
		{"0x1p+01", "0x1p+01"},                             // 20/10
		{"0x1.1p+02", "0x1.b333333333333p+01"},             // 34/8
		{"0x1.38p+05", "0x1.1aaaaaaaaaaabp+02"},            // 39/1
		{"0x1.3d37a6f4de9bdp+00", "0x1.071c71c71c71cp+01"}, // 57/46
		{"0x1.8p+03", "0x1p+01"},                           // 24/2
		{"0x1.3p+03", "0x1.3p+02"},                         // 57/6
		{"0x1.8p+01", "0x1p+01"},                           // 15/5
	}
	for trial, in := range e4Instances(t, 7, len(golden)) {
		fv, err := FlowValue(in.m, in.r)
		if err != nil {
			t.Fatal(err)
		}
		ov, err := OmegaStarFlow(in.m)
		if err != nil {
			t.Fatal(err)
		}
		if got := strconv.FormatFloat(fv, 'x', -1, 64); got != golden[trial][0] {
			t.Errorf("trial %d: FlowValue %s != golden %s", trial, got, golden[trial][0])
		}
		if got := strconv.FormatFloat(ov, 'x', -1, 64); got != golden[trial][1] {
			t.Errorf("trial %d: OmegaStarFlow %s != golden %s", trial, got, golden[trial][1])
		}
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
	if spreadV != subsetV {
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
	if got, err := s.Value(); err != nil || got != want {
		t.Errorf("after rejected radii: Value %v, %v; want %v", got, err, want)
	}
	for dim, maxR := range map[int]int{1: 2097151, 2: 1023, 3: 80, 4: 22} {
		if checkRadius(dim, maxR) != nil || !errors.Is(checkRadius(dim, maxR+1), ErrTooLarge) {
			t.Errorf("%d-D: largest accepted radius is not %d", dim, maxR)
		}
	}
	for _, dim := range []int{0, 5} {
		if checkRadius(dim, 1) == nil {
			t.Errorf("%d-D: radius 1 accepted, want a dimension error", dim)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = checkRadius(4, 22) }); allocs != 0 {
		t.Errorf("accepted radius check allocated %v times, want 0", allocs)
	}
}

// TestSolverRejectsInexactInstance pins the exact-integer guard: Bind
// refuses, with ErrTooLarge, an instance whose total demand times
// |N_r(support)| reaches 2^53 and leaves the solver bound as it was, and
// instances just below the guard solve exactly.
func TestSolverRejectsInexactInstance(t *testing.T) {
	pointMass := func(dim int, jobs int64) *demand.Map {
		m, err := demand.PointMass(dim, grid.Point{}, jobs)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, tc := range []struct {
		m    *demand.Map
		r    int
		want float64 // 0: refused
	}{
		{pointMass(2, 1<<51), 0, 1 << 51},
		{pointMass(2, 1<<51), 1, 0}, // 5 suppliers
		{pointMass(1, 1<<51), 1, float64(1<<51) / 3},
		{pointMass(1, 1<<53-1), 0, 1<<53 - 1},
		{pointMass(1, 1<<53), 0, 0},
	} {
		s, err := NewSolver(pointMass(2, 7), 1)
		if err != nil {
			t.Fatal(err)
		}
		err = s.Bind(tc.m, tc.r)
		if tc.want == 0 {
			if !errors.Is(err, ErrTooLarge) {
				t.Errorf("%d jobs at radius %d: Bind = %v, want ErrTooLarge", tc.m.Total(), tc.r, err)
			}
			if v, err := s.Value(); err != nil || v != 7.0/5 {
				t.Errorf("after a refused Bind: Value %v, %v; want 1.4", v, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if v, err := s.Value(); err != nil || v != tc.want {
			t.Errorf("%d jobs at radius %d: Value %v, %v; want %v", tc.m.Total(), tc.r, v, err, tc.want)
		}
	}
}
