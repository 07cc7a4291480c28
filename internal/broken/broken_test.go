package broken

import (
	"math"
	"testing"

	"repro/internal/demand"
	"repro/internal/grid"
	"repro/internal/lpchar"
)

func TestLongevityValidate(t *testing.T) {
	if err := (Longevity{Default: 1}).Validate(); err != nil {
		t.Error(err)
	}
	if err := (Longevity{Default: 1.5}).Validate(); err == nil {
		t.Error("default > 1 should fail")
	}
	bad := Longevity{Default: 1, Override: map[grid.Point]float64{grid.P(0, 0): -0.1}}
	if err := bad.Validate(); err == nil {
		t.Error("negative override should fail")
	}
	if err := (Longevity{Default: math.NaN()}).Validate(); err == nil {
		t.Error("NaN default should fail")
	}
	nan := Longevity{Default: 1, Override: map[grid.Point]float64{grid.P(0, 0): math.NaN()}}
	if err := nan.Validate(); err == nil {
		t.Error("NaN override should fail")
	}
}

func TestLongevityAt(t *testing.T) {
	l := Longevity{Default: 0.5, Override: map[grid.Point]float64{grid.P(1, 1): 0.9}}
	if l.At(grid.P(1, 1)) != 0.9 || l.At(grid.P(2, 2)) != 0.5 {
		t.Error("At lookup wrong")
	}
}

func TestLowerBoundReducesToHealthyLP(t *testing.T) {
	// With all p_i = 1, LP (4.1) is exactly the self-consistent program
	// (2.8), so LowerBound must agree with lpchar.OmegaStarFlow.
	m, err := demand.PointMass(2, grid.P(0, 0), 40)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := LowerBound(m, Longevity{Default: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := lpchar.OmegaStarFlow(m)
	if err != nil {
		t.Fatal(err)
	}
	// Program (2.8) uses radius floor(omega); LP (4.1) with p=1 uses radius
	// omega. Both characterize the same crossing within one radius step, so
	// compare loosely.
	if healthy < want*0.7 || healthy > want*1.5 {
		t.Errorf("healthy LowerBound %v vs omega* %v", healthy, want)
	}
}

func TestLowerBoundAllBrokenFails(t *testing.T) {
	m, err := demand.PointMass(2, grid.P(0, 0), 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LowerBound(m, Longevity{Default: 0}); err == nil {
		t.Error("demand with all vehicles broken should be infeasible")
	}
}

// TestLowerBoundRejectsBadDimension pins an error, not a panic in the ball
// lister, for demand in a dimension outside [1, grid.MaxDim].
func TestLowerBoundRejectsBadDimension(t *testing.T) {
	for _, dim := range []int{0, grid.MaxDim + 1} {
		m := demand.NewMap(dim)
		if err := m.Add(grid.P(1, 1), 5); err != nil {
			t.Fatal(err)
		}
		if _, err := LowerBound(m, Longevity{Default: 1}); err == nil {
			t.Errorf("%d-D demand: no error", dim)
		}
	}
}

func TestLowerBoundEmpty(t *testing.T) {
	if v, err := LowerBound(demand.NewMap(2), Longevity{Default: 1}); err != nil || v != 0 {
		t.Errorf("empty: %v %v", v, err)
	}
}

func TestLowerBoundMonotoneInLongevity(t *testing.T) {
	// Shrinking every p_i can only increase the required omega.
	m, err := demand.PointMass(2, grid.P(0, 0), 60)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, p := range []float64{1, 0.5, 0.25} {
		v, err := LowerBound(m, Longevity{Default: p})
		if err != nil {
			t.Fatal(err)
		}
		if v < prev*(1-1e-9) {
			t.Fatalf("bound decreased when longevity shrank: p=%v gives %v after %v",
				p, v, prev)
		}
		prev = v
	}
}

func TestNewFig41Validation(t *testing.T) {
	if _, err := NewFig41(0, 100); err == nil {
		t.Error("r1 0 should fail")
	}
	if _, err := NewFig41(4, 8); err == nil {
		t.Error("r2 < 6*r1 should fail")
	}
}

// TestFig41GapGrowsQuadratically reproduces Section 4.2: the LP bound is
// 2*r1 while the only feasible strategy needs Theta(r1^2) energy, so the
// ratio grows linearly in r1 — the Theorem 4.1.1 bound is not tight.
func TestFig41GapGrowsQuadratically(t *testing.T) {
	var prevRatio float64
	for _, r1 := range []int{2, 4, 8, 16} {
		f, err := NewFig41(r1, 8*r1)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := f.LPBound()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(lp-2*float64(r1)) > 0.01*float64(r1)+0.5 {
			t.Errorf("r1=%d: LP bound %v, thesis says 2*r1=%d", r1, lp, 2*r1)
		}
		truth := f.TrueRequirement()
		// Travel alone matches the thesis closed form; TrueRequirement adds
		// the 2*r1 service units.
		wantTravel := f.TravelFormula()
		if math.Abs(truth-(wantTravel+2*float64(r1))) > 1e-9 {
			t.Errorf("r1=%d: simulated %v, formula travel %v + serve %d",
				r1, truth, wantTravel, 2*r1)
		}
		ratio := truth / lp
		if ratio <= prevRatio {
			t.Errorf("r1=%d: gap ratio %v did not grow (prev %v)", r1, ratio, prevRatio)
		}
		prevRatio = ratio
	}
	if prevRatio < 8 {
		t.Errorf("final gap ratio %v too small to demonstrate non-tightness", prevRatio)
	}
}

func TestFig41GeometryAndArrivals(t *testing.T) {
	f, err := NewFig41(3, 20)
	if err != nil {
		t.Fatal(err)
	}
	if grid.Manhattan(f.I, f.J) != 6 {
		t.Error("i and j must be 2*r1 apart")
	}
	if grid.Manhattan(f.I, f.K) != 3 || grid.Manhattan(f.J, f.K) != 3 {
		t.Error("k must be midway")
	}
	if f.Lon.At(f.K) != 1 {
		t.Error("k must be healthy")
	}
	if f.Lon.At(grid.P(1, 1)) != 0 {
		t.Error("in-circle vehicles must be broken")
	}
	if f.Lon.At(grid.P(100, 100)) != 1 {
		t.Error("outside vehicles must be healthy")
	}
	if f.Arrival.Len() != 6 {
		t.Errorf("arrivals %d, want 2*r1", f.Arrival.Len())
	}
	if f.Arrival.At(0) != f.I || f.Arrival.At(1) != f.J {
		t.Error("arrivals must alternate starting at i")
	}
}
