package lpchar

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/demand"
	"repro/internal/grid"
)

func randDemand(rng *rand.Rand, dim, extent, points int, maxD int64) *demand.Map {
	m := demand.NewMap(dim)
	for i := 0; i < points; i++ {
		var p grid.Point
		for a := 0; a < dim; a++ {
			p[a] = int32(rng.Intn(extent))
		}
		if err := m.Add(p, 1+rng.Int63n(maxD)); err != nil {
			panic(err)
		}
	}
	return m
}

// cubePrefix densifies m over arena into the summed-area table the cube
// omega* scans read, as offline.NewDense does: over the bounding box of
// m's support.
func cubePrefix(t testing.TB, m *demand.Map, arena *grid.Grid) *grid.PrefixSum {
	t.Helper()
	win, ok := m.BoundingBox()
	if ok {
		win.Dim = arena.Dim()
	}
	ps, err := grid.NewPrefixSum(arena, win)
	if err != nil {
		t.Fatal(err)
	}
	for p, v := range m.All() {
		ps.Add(p, v)
	}
	ps.Accumulate()
	return &ps
}

func TestFeasibleTrivial(t *testing.T) {
	m := demand.NewMap(2)
	s, err := NewSolver(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := s.FeasibleAt(0)
	if err != nil || !ok {
		t.Fatalf("empty demand should be feasible: %v %v", ok, err)
	}
	if err := m.Add(grid.P(0, 0), 5); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind(m, 3); err != nil {
		t.Fatal(err)
	}
	if ok, _ := s.FeasibleAt(0); ok {
		t.Error("zero capacity with demand should be infeasible")
	}
}

func TestFlowValueSinglePoint(t *testing.T) {
	// Demand d at one point, radius r: LP value = d / |N_r(point)|.
	m, err := demand.PointMass(2, grid.P(0, 0), 130)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{0, 1, 2, 3} {
		ball := int64(2*r*r + 2*r + 1)
		want := 130.0 / float64(ball)
		got, err := FlowValue(m, r)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-6*want {
			t.Errorf("r=%d: flow value %v, want %v", r, got, want)
		}
	}
}

// TestDualityChain is experiment E4's core assertion: the flow-computed LP
// (2.1) value equals Lemma 2.2.2's closed form max_T sum(d)/|N_r(T)| on
// random instances. This exercises the entire duality chain of Lemmas
// 2.2.1-2.2.2.
func TestDualityChain(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		dim := 1 + rng.Intn(2)
		m := randDemand(rng, dim, 6, 2+rng.Intn(5), 20)
		r := rng.Intn(4)
		flowV, err := FlowValue(m, r)
		if err != nil {
			t.Fatal(err)
		}
		subsetV, err := SubsetValue(m, r)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(flowV-subsetV) > 1e-6*math.Max(1, subsetV) {
			t.Errorf("trial %d (dim %d r %d): flow %v != subset %v",
				trial, dim, r, flowV, subsetV)
		}
		// Boxes are a subfamily of subsets: their max never exceeds it.
		boxV, _, err := MaxOverBoxes(m, r)
		if err != nil {
			t.Fatal(err)
		}
		if boxV > subsetV*(1+1e-9) {
			t.Errorf("trial %d: box max %v exceeds subset max %v", trial, boxV, subsetV)
		}
		if boxV <= 0 {
			t.Errorf("trial %d: box max should be positive", trial)
		}
	}
}

func TestSubsetValueTooLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randDemand(rng, 2, 30, 200, 3)
	if m.SupportSize() <= maxSubsetSupport {
		t.Skip("rng produced a small support")
	}
	if _, err := SubsetValue(m, 2); !errors.Is(err, ErrTooLarge) {
		t.Errorf("want ErrTooLarge, got %v", err)
	}
}

func TestEmptyInstances(t *testing.T) {
	m := demand.NewMap(2)
	if v, err := FlowValue(m, 3); err != nil || v != 0 {
		t.Errorf("FlowValue empty = %v, %v", v, err)
	}
	if v, err := SubsetValue(m, 3); err != nil || v != 0 {
		t.Errorf("SubsetValue empty = %v, %v", v, err)
	}
	if v, _, err := MaxOverBoxes(m, 3); err != nil || v != 0 {
		t.Errorf("MaxOverBoxes empty = %v, %v", v, err)
	}
	if v, err := OmegaStarFlow(m); err != nil || v != 0 {
		t.Errorf("OmegaStarFlow empty = %v, %v", v, err)
	}
}

// TestOmegaStarFixedPoint checks that omega* from the self-consistent
// program (2.8) satisfies LPvalue(floor(omega*)) ~ omega* (or sits at a
// segment boundary), and that it is sandwiched per Lemma 2.2.3.
func TestOmegaStarFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 15; trial++ {
		m := randDemand(rng, 2, 5, 3+rng.Intn(4), 60)
		omega, err := OmegaStarFlow(m)
		if err != nil {
			t.Fatal(err)
		}
		if omega <= 0 {
			t.Fatalf("omega* = %v for nonempty demand", omega)
		}
		r := int(math.Floor(omega))
		v, err := FlowValue(m, r)
		if err != nil {
			t.Fatal(err)
		}
		// Either the fixed point is interior (v == omega) or omega sits at
		// the integer jump (v <= omega <= value on the previous segment).
		if math.Abs(v-omega) > 1e-6*math.Max(1, omega) {
			if math.Abs(omega-float64(r)) > 1e-9 || v > omega+1e-6 {
				t.Errorf("trial %d: omega*=%v but LPvalue(r=%d)=%v", trial, omega, r, v)
			}
			if r > 0 {
				prev, err := FlowValue(m, r-1)
				if err != nil {
					t.Fatal(err)
				}
				if prev < omega-1e-6 {
					t.Errorf("trial %d: jump fixed point invalid: prev=%v omega=%v",
						trial, prev, omega)
				}
			}
		}
	}
}

func TestOmegaStarCubesLowerBoundsSubsetFamily(t *testing.T) {
	// The cube family is a subfamily of all subsets, so the cube omega*
	// cannot exceed the flow (all-subsets) omega*; and by Corollary 2.2.6 it
	// is within the dimension constant. (Both solve the same self-consistent
	// equation over their families.)
	rng := rand.New(rand.NewSource(47))
	arena := grid.MustNew(8, 8)
	for trial := 0; trial < 10; trial++ {
		m := randDemand(rng, 2, 8, 4+rng.Intn(4), 40)
		ps := cubePrefix(t, m, arena)
		cubeV, err := OmegaStarCubesPS(ps)
		if err != nil {
			t.Fatal(err)
		}
		flowV, err := OmegaStarFlow(m)
		if err != nil {
			t.Fatal(err)
		}
		if cubeV > flowV*(1+1e-6)+1e-6 {
			t.Errorf("trial %d: cube omega* %v exceeds subset omega* %v",
				trial, cubeV, flowV)
		}
		if cubeV < flowV/8 {
			t.Errorf("trial %d: cube omega* %v unreasonably below subset omega* %v",
				trial, cubeV, flowV)
		}
		dblV, err := OmegaStarCubesDoublingPS(ps)
		if err != nil {
			t.Fatal(err)
		}
		if dblV > cubeV*(1+1e-9) {
			t.Errorf("trial %d: doubling %v exceeds full cube sweep %v", trial, dblV, cubeV)
		}
		if dblV <= 0 {
			t.Errorf("trial %d: doubling value should be positive", trial)
		}
	}
}

func TestFlowValueMonotoneInRadius(t *testing.T) {
	// omega(r) is non-increasing in r (proof of Lemma 2.2.3).
	rng := rand.New(rand.NewSource(53))
	m := randDemand(rng, 2, 6, 6, 30)
	prev := math.Inf(1)
	for r := 0; r <= 6; r++ {
		v, err := FlowValue(m, r)
		if err != nil {
			t.Fatal(err)
		}
		if v > prev*(1+1e-6) {
			t.Fatalf("LP value increased with radius: r=%d %v > %v", r, v, prev)
		}
		prev = v
	}
}
