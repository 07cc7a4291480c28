package offline

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/demand"
	"repro/internal/grid"
	"repro/internal/lpchar"
)

func TestPow(t *testing.T) {
	if pow(3, 2) != 9 || pow(2, 0) != 1 || pow(6, 3) != 216 {
		t.Fatal("pow broken")
	}
}

func TestOmegaCEmptyAndErrors(t *testing.T) {
	arena := grid.MustNew(8, 8)
	if c, err := OmegaC(demand.NewMap(2), arena); err != nil || c.Omega != 0 {
		t.Errorf("empty: %v %v", c, err)
	}
	m, err := demand.PointMass(2, grid.P(100, 100), 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OmegaC(m, arena); err == nil {
		t.Error("demand outside arena should fail")
	}
}

func TestOmegaCPointMass(t *testing.T) {
	// Point demand d: cube side 1 gives f(1) = d/9 in 2-D; valid only when
	// d <= 9. Larger d climbs to larger cubes: omega_c roughly (d/9s^2)
	// with s = ceil(omega_c), i.e. omega_c ~ (d/9)^(1/3).
	arena := grid.MustNew(64, 64)
	for _, d := range []int64{5, 100, 5000} {
		m, err := demand.PointMass(2, grid.P(32, 32), d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := OmegaC(m, arena)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Cbrt(float64(d) / 9)
		if got.Omega < want/3 || got.Omega > want*3 {
			t.Errorf("d=%d: omega_c=%v, expected near %v", d, got.Omega, want)
		}
		if got.Side < int(got.Omega) {
			t.Errorf("d=%d: side %d below omega %v", d, got.Side, got.Omega)
		}
	}
}

func TestOmegaCSandwichesOmegaStar(t *testing.T) {
	// Corollary 2.2.7: omega_c <= Woff and Woff <= (2*3^l+l)*omega_c, with
	// Woff >= omega* (the all-subsets LP value). We verify the computable
	// sandwich: omega_c and omega* agree within the dimension constant.
	rng := rand.New(rand.NewSource(61))
	arena := grid.MustNew(16, 16)
	b, err := grid.NewBox(2, grid.P(4, 4), grid.P(11, 11))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 8; trial++ {
		m, err := demand.Uniform(rng, b, 60+rng.Int63n(300))
		if err != nil {
			t.Fatal(err)
		}
		char, err := OmegaC(m, arena)
		if err != nil {
			t.Fatal(err)
		}
		omegaStar, err := lpchar.OmegaStarFlow(m)
		if err != nil {
			t.Fatal(err)
		}
		// omega_c <= omega_{T_c} <= max_T omega_T = omega* (thesis proof of
		// Cor 2.2.7); allow float slack.
		if char.Omega > omegaStar*(1+1e-6)+1e-6 {
			t.Errorf("trial %d: omega_c %v > omega* %v", trial, char.Omega, omegaStar)
		}
		// And it cannot be more than the dimension constant below.
		factor := float64(2*pow(3, 2) + 2)
		if omegaStar > factor*math.Max(char.Omega, 1) {
			t.Errorf("trial %d: omega* %v exceeds %v * omega_c (%v)",
				trial, omegaStar, factor, char.Omega)
		}
	}
}

// Algorithm1 runs Algorithm 1 on a fresh dense view of m over arena: the
// standalone path the tests call where production code keeps one Dense
// (cmvrp.SolveOffline, cmd/cmvrp, E5, E6).
func Algorithm1(m *demand.Map, arena *grid.Grid) (Alg1Result, error) {
	d, err := NewDense(m, arena)
	if err != nil {
		return Alg1Result{}, err
	}
	return d.Algorithm1()
}

func TestAlgorithm1Validation(t *testing.T) {
	m := demand.NewMap(2)
	if _, err := Algorithm1(m, grid.MustNew(8, 4)); err == nil {
		t.Error("non-square arena should fail")
	}
	if _, err := Algorithm1(m, grid.MustNew(6, 6)); err == nil {
		t.Error("non-power-of-two side should fail")
	}
}

func TestAlgorithm1Branches(t *testing.T) {
	arena := grid.MustNew(8, 8)

	t.Run("tiny demand", func(t *testing.T) {
		m := demand.NewMap(2)
		if err := m.Add(grid.P(3, 3), 1); err != nil {
			t.Fatal(err)
		}
		res, err := Algorithm1(m, arena)
		if err != nil {
			t.Fatal(err)
		}
		if res.Branch != BranchTinyDemand || res.W != 1 || res.Sums != 0 {
			t.Errorf("got %+v", res)
		}
	})

	t.Run("dense grid", func(t *testing.T) {
		m := demand.NewMap(2)
		for _, p := range arena.Bounds().Points() {
			if err := m.Add(p, 20); err != nil {
				t.Fatal(err)
			}
		}
		res, err := Algorithm1(m, arena)
		if err != nil {
			t.Fatal(err)
		}
		if res.Branch != BranchDenseGrid || res.Sums != 0 {
			t.Errorf("got branch %v after %d cube sums", res.Branch, res.Sums)
		}
		// min{D, 2*Dhat + l*n} = min{20, 40+16} = 20.
		if res.W != 20 {
			t.Errorf("W = %v, want 20", res.W)
		}
	})

	t.Run("cube", func(t *testing.T) {
		m, err := demand.PointMass(2, grid.P(4, 4), 50)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Algorithm1(m, arena)
		if err != nil {
			t.Fatal(err)
		}
		if res.Branch != BranchCube {
			t.Fatalf("got branch %v", res.Branch)
		}
		// w=2 check: aligned 2-cube sum 50 <= 2*(6^2) = 72, so w=2 passes
		// after reading the one 2-cube that meets the demand.
		if res.CubeSide != 2 || res.Sums != 1 {
			t.Errorf("cube side %d after %d cube sums, want 2 after 1", res.CubeSide, res.Sums)
		}
		if want := float64(2*9+2) * 2; res.W != want {
			t.Errorf("W = %v, want %v", res.W, want)
		}
	})
}

// TestAlgorithm1ApproximationGuarantee is experiment E5's core assertion:
// Algorithm 1's output is sandwiched between the exact lower bound omega*
// and 2(2*3^l+l) * a Theta(omega*) quantity on random workloads.
func TestAlgorithm1ApproximationGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	arena := grid.MustNew(16, 16)
	inner, err := grid.NewBox(2, grid.P(4, 4), grid.P(11, 11))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 8; trial++ {
		m, err := demand.Uniform(rng, inner, 50+rng.Int63n(400))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Algorithm1(m, arena)
		if err != nil {
			t.Fatal(err)
		}
		omegaStar, err := lpchar.OmegaStarFlow(m)
		if err != nil {
			t.Fatal(err)
		}
		// Upper-bound side: W >= Woff >= omega* must hold for the returned
		// capacity to be sufficient... Algorithm 1 returns a capacity that
		// is *sufficient*, so it must be at least omega*.
		if res.W < omegaStar*(1-1e-6) {
			t.Errorf("trial %d: Alg1 W %v below lower bound omega* %v",
				trial, res.W, omegaStar)
		}
		// Approximation side: W <= 2(2*3^l+l) * Woff and Woff <=
		// (2*3^l+l)*omega*; combined generous cap keeps the ratio bounded.
		cap := 2 * float64(2*pow(3, 2)+2) * float64(2*pow(3, 2)+2) * math.Max(omegaStar, 1)
		if res.W > cap {
			t.Errorf("trial %d: Alg1 W %v exceeds approximation cap %v (omega* %v)",
				trial, res.W, cap, omegaStar)
		}
	}
}

func TestBuildScheduleServesEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	arena := grid.MustNew(32, 32)
	inner, err := grid.NewBox(2, grid.P(8, 8), grid.P(23, 23))
	if err != nil {
		t.Fatal(err)
	}
	workloads := map[string]*demand.Map{}
	u, err := demand.Uniform(rng, inner, 800)
	if err != nil {
		t.Fatal(err)
	}
	workloads["uniform"] = u
	c, err := demand.Clusters(rng, inner, 4, 250, 3)
	if err != nil {
		t.Fatal(err)
	}
	workloads["clusters"] = c
	p, err := demand.PointMass(2, grid.P(16, 16), 900)
	if err != nil {
		t.Fatal(err)
	}
	workloads["point"] = p
	ln, err := demand.Line(grid.P(8, 16), 16, 40)
	if err != nil {
		t.Fatal(err)
	}
	workloads["line"] = ln

	for name, m := range workloads {
		t.Run(name, func(t *testing.T) {
			sched, err := BuildSchedule(m, arena)
			if err != nil {
				t.Fatal(err)
			}
			maxE, err := VerifySchedule(m, sched, sched.W)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(maxE-sched.W) > 1e-9 {
				t.Errorf("verifier max %v != schedule W %v", maxE, sched.W)
			}
			// Lemma 2.2.5: the constructed capacity is within (2*3^l+l)
			// times omega (plus rounding slack from integer budgets).
			bound := float64(2*pow(3, 2)+2)*math.Max(sched.OmegaC, 1) + 4
			if sched.W > bound {
				t.Errorf("schedule W %v exceeds Lemma 2.2.5 bound %v (omega_c %v)",
					sched.W, bound, sched.OmegaC)
			}
		})
	}
}

func TestBuildScheduleEmpty(t *testing.T) {
	sched, err := BuildSchedule(demand.NewMap(2), grid.MustNew(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Plans) != 0 || sched.W != 0 {
		t.Error("empty schedule should be trivial")
	}
}

func TestBuildScheduleWithOmegaTooSmallFails(t *testing.T) {
	arena := grid.MustNew(16, 16)
	m, err := demand.PointMass(2, grid.P(8, 8), 100000)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDense(m, arena)
	if err != nil {
		t.Fatal(err)
	}
	// Side 1 clips no cube, so the shortage is not a boundary effect.
	if _, err := d.BuildSchedule(CubeChar{Omega: 0.5, Side: 1}); err == nil || errors.Is(err, ErrBoundaryCube) {
		t.Errorf("starving the construction should fail, not mis-schedule, with a full-cube error: %v", err)
	}
	if _, err := d.BuildSchedule(CubeChar{Omega: -1, Side: 1}); err == nil {
		t.Error("negative omega should fail")
	}
}

func TestVerifyScheduleCatchesCheating(t *testing.T) {
	m, err := demand.PointMass(2, grid.P(1, 1), 4)
	if err != nil {
		t.Fatal(err)
	}
	good := &Schedule{Plans: []VehiclePlan{{Home: grid.P(1, 1), ServeHome: 4}}, W: 4}
	if _, err := VerifySchedule(m, good, 4); err != nil {
		t.Fatalf("good schedule rejected: %v", err)
	}
	cases := map[string]*Schedule{
		"under-serves": {Plans: []VehiclePlan{{Home: grid.P(1, 1), ServeHome: 3}}},
		"over-serves": {Plans: []VehiclePlan{
			{Home: grid.P(1, 1), ServeHome: 4},
			{Home: grid.P(0, 0), Moved: true, Dest: grid.P(1, 1), ServeDest: 2}}},
		"duplicate vehicle": {Plans: []VehiclePlan{
			{Home: grid.P(1, 1), ServeHome: 2},
			{Home: grid.P(1, 1), ServeHome: 2}}},
		"phantom dest service": {Plans: []VehiclePlan{
			{Home: grid.P(1, 1), ServeHome: 4, ServeDest: 1}}},
		"negative service": {Plans: []VehiclePlan{
			{Home: grid.P(1, 1), ServeHome: -1}}},
	}
	for name, sched := range cases {
		if _, err := VerifySchedule(m, sched, 100); err == nil {
			t.Errorf("%s: verifier accepted a bad schedule", name)
		}
	}
	// Capacity violation.
	if _, err := VerifySchedule(m, good, 3); err == nil {
		t.Error("capacity violation not caught")
	}
}

func TestAlg1BranchString(t *testing.T) {
	for _, b := range []Alg1Branch{BranchDenseGrid, BranchTinyDemand, BranchFullGrid, BranchCube, Alg1Branch(99)} {
		if b.String() == "" {
			t.Errorf("empty string for branch %d", int(b))
		}
	}
}
