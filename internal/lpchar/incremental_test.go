package lpchar

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/demand"
)

// TestLadderVerdictsMatchFresh is the certified probe's core contract:
// every probe() verdict — cut-certified infeasibles, oracle runs, cut
// adoptions — equals the from-scratch Reset+MaxFlow verdict on the same
// omega. Schedules mix random jumps (ascents, descents,
// revisits) with the exact convergent midpoint sequence Value() generates,
// because the certificates only start firing once infeasible oracle runs
// have donated tight cuts and the bisection closes in on the threshold.
func TestLadderVerdictsMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	var inc, ref Solver
	for trial := 0; trial < 20; trial++ {
		dim := 1 + rng.Intn(2)
		m := randDemand(rng, dim, 6, 2+rng.Intn(5), 25)
		r := rng.Intn(4)
		if err := inc.Bind(m, r); err != nil {
			t.Fatal(err)
		}
		if err := ref.Bind(m, r); err != nil {
			t.Fatal(err)
		}
		maxD := float64(m.Max())
		check := func(omega float64) bool {
			t.Helper()
			incOK, err := inc.probe(omega)
			if err != nil {
				t.Fatal(err)
			}
			refOK, err := ref.FeasibleAt(omega)
			if err != nil {
				t.Fatal(err)
			}
			if incOK != refOK {
				t.Fatalf("trial %d omega %v: incremental %v != fresh %v", trial, omega, incOK, refOK)
			}
			return incOK
		}
		// Random jumps: ascents, descents into the rung window, descents
		// below every rung (full restart).
		for p := 0; p < 25; p++ {
			check(0.01 + rng.Float64()*maxD*1.1)
		}
		// The bisection's own midpoint sequence, converging onto the
		// threshold where the marginal guard must take over.
		lo, hi := 0.0, maxD
		for iter := 0; iter < bisectMaxIters && hi-lo > bisectTolRel*math.Max(1, hi); iter++ {
			mid := (lo + hi) / 2
			if check(mid) {
				hi = mid
			} else {
				lo = mid
			}
		}
	}
}

// TestOmegaStarFlowMatchesPerRadiusFresh pins the reworked OmegaStarFlow —
// one pooled, memoized solver plus witness-bound certificates — against a
// reference transcription of the retired algorithm: a fresh solver per radius
// and a plain bisection that evaluates the LP at every visited radius.
func TestOmegaStarFlowMatchesPerRadiusFresh(t *testing.T) {
	refValue := func(m *demand.Map, r int) float64 {
		t.Helper()
		s, err := NewSolver(m, r)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := 0.0, float64(m.Max())
		for iter := 0; iter < bisectMaxIters && hi-lo > bisectTolRel*math.Max(1, hi); iter++ {
			mid := (lo + hi) / 2
			ok, err := s.FeasibleAt(mid)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				hi = mid
			} else {
				lo = mid
			}
		}
		return hi
	}
	refOmega := func(m *demand.Map) float64 {
		t.Helper()
		if m.Total() == 0 {
			return 0
		}
		memo := map[int]float64{}
		value := func(r int) float64 {
			if v, ok := memo[r]; ok {
				return v
			}
			v := refValue(m, r)
			memo[r] = v
			return v
		}
		hi := 1
		for value(hi) > float64(hi+1) {
			hi *= 2
			if int64(hi) > m.Max()+1 {
				break
			}
		}
		lo := 0
		for lo < hi {
			mid := (lo + hi) / 2
			if value(mid) <= float64(mid+1) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		v := value(lo)
		if v < float64(lo) {
			return float64(lo)
		}
		if v > float64(lo+1) {
			return float64(lo + 1)
		}
		return v
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

// TestSolverSecondValueAllocatesNothing extends the zero-allocation contract
// from single probes to whole bisections: after the first Value() call on a
// bound solver, further Value() calls — ladder init, rung snapshots, resumes,
// and marginal fresh re-probes included — stay off the heap.
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
