package broken

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"testing"

	"repro/internal/demand"
	"repro/internal/flow"
	"repro/internal/grid"
	"repro/internal/lpchar"
)

// At returns p_i for the vehicle at x.
func (l Longevity) At(x grid.Point) float64 {
	if v, ok := l.Override[x]; ok {
		return v
	}
	return l.Default
}

// feasible is the flow oracle LowerBound used to bisect on before
// lpchar.FleetBound: whether capacity omega satisfies LP (4.1), every
// vehicle i supplying at most p_i*omega within radius p_i*omega, with the
// float slack 1e-9. It lists every lattice point within max p*omega of the
// support, so it refuses a radius whose (2r+1)^dim box holds more than 2^22
// points with an error wrapping lpchar.ErrTooLarge, as lpchar's radius check
// did for it.
func feasible(m *demand.Map, lon Longevity, omega float64) (bool, error) {
	total := float64(m.Total())
	if total == 0 {
		return true, nil
	}
	if omega <= 0 {
		return false, nil
	}
	maxP := lon.Default
	for _, v := range lon.Override {
		maxP = max(maxP, v)
	}
	maxR := int(math.Floor(maxP * omega))
	for i, vol := 0, 1; i < m.Dim(); i++ {
		if maxR > 1<<22 || vol > (1<<22)/(2*maxR+1) {
			return false, fmt.Errorf("%w: radius %d in %d-D", lpchar.ErrTooLarge, maxR, m.Dim())
		}
		vol *= 2*maxR + 1
	}
	support := m.Support()
	ball := grid.AppendBall(nil, m.Dim(), maxR)
	seen := make(map[grid.Point]bool)
	var suppliers []grid.Point
	for _, s := range support {
		for _, d := range ball {
			p := s.Add(d)
			if seen[p] {
				continue
			}
			seen[p] = true
			if lon.At(p) > 0 {
				suppliers = append(suppliers, p)
			}
		}
	}
	n := 2 + len(suppliers) + len(support)
	nw, err := flow.NewNetwork(n)
	if err != nil {
		return false, err
	}
	src, sink := 0, n-1
	for i, p := range suppliers {
		if _, err := nw.AddEdge(src, 1+i, lon.At(p)*omega); err != nil {
			return false, err
		}
	}
	for j, q := range support {
		dj := 1 + len(suppliers) + j
		if _, err := nw.AddEdge(dj, sink, float64(m.At(q))); err != nil {
			return false, err
		}
		for i, p := range suppliers {
			if float64(grid.Manhattan(p, q)) <= lon.At(p)*omega {
				if _, err := nw.AddEdge(1+i, dj, math.Inf(1)); err != nil {
					return false, err
				}
			}
		}
	}
	val, err := nw.MaxFlow(src, sink)
	if err != nil {
		return false, err
	}
	return val >= total*(1-1e-9)-1e-9, nil
}

// bisectLowerBound is the float bisection LowerBound ran before
// lpchar.FleetBound, kept as its oracle: the bracket doubles from 1 until
// feasible (an error past 1e12), then at most 60 halvings stop at a bracket
// of 1e-9*max(1, hi) and return its upper end.
func bisectLowerBound(m *demand.Map, lon Longevity) (float64, error) {
	if err := lon.Validate(); err != nil {
		return 0, err
	}
	if m.Total() == 0 {
		return 0, nil
	}
	hi := 1.0
	for {
		ok, err := feasible(m, lon, hi)
		if err != nil {
			return 0, err
		}
		if ok {
			break
		}
		hi *= 2
		if hi > 1e12 {
			return 0, errors.New("broken: no feasible omega below 1e12")
		}
	}
	lo := 0.0
	for iter := 0; iter < 60 && hi-lo > 1e-9*math.Max(1, hi); iter++ {
		mid := (lo + hi) / 2
		ok, err := feasible(m, lon, mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

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

// TestLongevityValidateNamesLeastOverride pins the error text of several
// bad Override entries to the least position, whatever order map iteration
// takes.
func TestLongevityValidateNamesLeastOverride(t *testing.T) {
	bad := Longevity{Default: 1, Override: map[grid.Point]float64{
		grid.P(3, 0): 2, grid.P(0, 5): -1, grid.P(1, 1): 0.5, grid.P(2, 2): math.NaN(),
	}}
	const want = "broken: longevity -1 at (0,5) outside [0,1]"
	for range 200 {
		if err := bad.Validate(); err == nil || err.Error() != want {
			t.Fatalf("Validate = %v, want %q", err, want)
		}
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
	// (2.8), so LowerBound must equal lpchar.OmegaStarFlow. Program (2.8)
	// uses radius floor(omega) and LP (4.1) with p=1 radius omega: on
	// integer distances they are the same program.
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
	if healthy != want {
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

// TestLowerBoundVanishingDefault pins LP (4.1) for a default longevity so
// small that every default segment end (r+1)/def is +Inf. A broken vehicle
// inside the probed ball supplies nothing there, not 0*Inf = NaN: with the
// long-lived vehicle 200 cells out the bound is 200, as without the broken
// one. Without it the value only exceeds float64, which is the error, while
// a fleet that reaches nothing keeps its own.
func TestLowerBoundVanishingDefault(t *testing.T) {
	m, err := demand.PointMass(2, grid.P(0, 0), 5)
	if err != nil {
		t.Fatal(err)
	}
	const tiny = 1e-310
	const overflow = "lpchar: the LP (4.1) value exceeds the float64 range"
	for _, tc := range []struct {
		lon     Longevity
		want    float64
		wantErr string
	}{
		{Longevity{Default: tiny, Override: map[grid.Point]float64{grid.P(0, 0): 0, grid.P(200, 0): 1}}, 200, ""},
		{Longevity{Default: tiny, Override: map[grid.Point]float64{grid.P(200, 0): 1}}, 200, ""},
		{Longevity{Default: tiny, Override: map[grid.Point]float64{grid.P(0, 0): 0}}, 0, overflow},
		{Longevity{Default: tiny}, 0, overflow},
		{Longevity{Default: 0}, 0, "lpchar: no vehicle can reach the demand"},
	} {
		got, err := LowerBound(m, tc.lon)
		if tc.wantErr != "" {
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("%+v: LowerBound = %v, %v; want error %q", tc.lon, got, err, tc.wantErr)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("%+v: LowerBound = %v, %v; want %v", tc.lon, got, err, tc.want)
		}
	}
}

// TestLowerBoundBrokenDisc pins a bound past the radius at which the search
// stops bracketing for a fleet that lists nothing (max demand + 1 = 2): with
// one job at the origin and every vehicle within distance 5 broken, the
// nearest healthy vehicles, 6 cells out, set the bound at 6.
func TestLowerBoundBrokenDisc(t *testing.T) {
	m, err := demand.PointMass(2, grid.P(0, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	lon := Longevity{Default: 1, Override: map[grid.Point]float64{}}
	for _, d := range grid.AppendBall(nil, 2, 5) {
		lon.Override[d] = 0
	}
	if v, err := LowerBound(m, lon); err != nil || v != 6 {
		t.Errorf("LowerBound = %v, %v; want 6", v, err)
	}
}

// TestLowerBoundRejectsBadDimension pins that demand in a dimension outside
// [1, grid.MaxDim] cannot reach the ball lister: Add refuses its jobs, and
// LowerBound returns 0 for the map left empty, with no panic.
func TestLowerBoundRejectsBadDimension(t *testing.T) {
	for _, dim := range []int{0, grid.MaxDim + 1} {
		m := demand.NewMap(dim)
		if err := m.Add(grid.P(1, 1), 5); err == nil {
			t.Errorf("%d-D demand: Add accepted jobs", dim)
		}
		if v, err := LowerBound(m, Longevity{Default: 1}); err != nil || v != 0 {
			t.Errorf("%d-D demand: LowerBound = %v, %v; want 0 for the empty map", dim, v, err)
		}
	}
}

// TestLowerBoundRejectsOffLatticeOverride pins an error, and one text
// whatever the map's order, for Override positions with a nonzero
// coordinate past the demand's dimension: listed vehicles there would be
// joined to the demand at an inflated distance.
func TestLowerBoundRejectsOffLatticeOverride(t *testing.T) {
	m, err := demand.PointMass(1, grid.P(0), 5)
	if err != nil {
		t.Fatal(err)
	}
	lon := Longevity{Default: 1, Override: map[grid.Point]float64{
		grid.P(3, 5): 1, grid.P(1, 2): 0, grid.P(2, 0, 1): 0.5, grid.P(4): 1,
	}}
	_, first := LowerBound(m, lon)
	if first == nil {
		t.Fatal("off-lattice Override accepted")
	}
	for i := 0; i < 50; i++ {
		if _, err := LowerBound(m, lon); err == nil || err.Error() != first.Error() {
			t.Fatalf("error %q, first call %q", err, first)
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
		if lp != 2*float64(r1) {
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

// TestLowerBoundWarmAllocs bounds a warm LowerBound's allocations: at most 3
// for the Figure 4.1 bound at r1 = 8, and at most 4 for 100 jobs at the
// origin with one long-lived vehicle 200 cells out over a default longevity
// of 1e-6. The float bisection that lpchar.FleetBound replaced built a
// supplier map and a network per probe: ~1,311 allocations at r1 = 8. The
// pooled solver keeps its buffers between calls; because the race detector
// makes sync.Pool drop items at random, each count is the least of ten
// single runs.
func TestLowerBoundWarmAllocs(t *testing.T) {
	f, err := NewFig41(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	origin, err := demand.PointMass(2, grid.P(0, 0), 100)
	if err != nil {
		t.Fatal(err)
	}
	far := Longevity{Default: 1e-6, Override: map[grid.Point]float64{grid.P(200, 0): 1}}
	for _, tc := range []struct {
		name        string
		m           *demand.Map
		lon         Longevity
		want, limit float64
	}{
		{"Figure 4.1 at r1 = 8", f.Demand, f.Lon, 16, 3},
		{"vehicle 200 cells out", origin, far, 200, 4},
	} {
		least := math.Inf(1)
		for range 10 {
			least = min(least, testing.AllocsPerRun(1, func() {
				if v, err := LowerBound(tc.m, tc.lon); err != nil || v != tc.want {
					t.Fatalf("%s: LowerBound = %v, %v; want %v", tc.name, v, err, tc.want)
				}
			}))
		}
		t.Logf("%s: %v allocations", tc.name, least)
		if least > tc.limit {
			t.Errorf("%s: warm LowerBound allocated %v times, want at most %v", tc.name, least, tc.limit)
		}
	}
}

// zeroOne reports whether every longevity of lon is 0 or 1, where
// LowerBound is exact.
func zeroOne(lon Longevity) bool {
	for _, p := range lon.Override {
		if p != 0 && p != 1 {
			return false
		}
	}
	return lon.Default == 0 || lon.Default == 1
}

// FuzzBrokenLowerBound drives LowerBound, the body of cmvrp.BrokenLowerBound,
// over 1-2-D demand of at most 6 points with coordinates 0-7 and 1-40 jobs
// each, a default longevity and at most 4 listed vehicles at coordinates -4
// to 11, every longevity drawn from {0, 1, 1e-3, b/255}. It must never
// panic. With default 1 and nothing listed it equals lpchar.OmegaStarFlow
// (cmvrp.ExactLowerBound) bit for bit; otherwise it agrees with the float
// bisection it replaced within 1e-8*max(1, omega), and errors exactly where
// that bisection errors, apart from inputs the bisection refuses with
// lpchar.ErrTooLarge. Raising one longevity never raises the bound: not at
// all when every longevity is 0 or 1, and by at most 1e-9 relative
// otherwise, where equal values can round a few ulps apart. A repeat call
// made after an OmegaStarFlow on another instance returns the same bits.
func FuzzBrokenLowerBound(f *testing.F) {
	// 40 jobs at the origin, default 1e-3 and one vehicle of longevity 1
	// eleven cells out: the far-vehicle shape. Then a 1-D broken disc: 12
	// jobs at 4 and 3 at 6, default 1, vehicles at 3, 4 and 5 broken and
	// one of longevity 1 at 9. Then the healthy fleet.
	f.Add(uint8(1), uint8(2), uint8(0), []byte{0, 0, 39}, []byte{15, 4, 1, 0}, uint8(0), uint8(3), uint8(128))
	f.Add(uint8(0), uint8(1), uint8(0), []byte{4, 11, 6, 2}, []byte{7, 0, 0, 8, 0, 0, 9, 0, 0, 13, 1, 0}, uint8(1), uint8(1), uint8(0))
	f.Add(uint8(1), uint8(1), uint8(0), []byte{1, 2, 9, 5, 5, 30}, []byte{}, uint8(0), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, dim, defKind, defB uint8, points, vehicles []byte, raise, raiseKind, raiseB uint8) {
		l := 1 + int(dim)%2
		longevity := func(kind, b uint8) float64 {
			return []float64{0, 1, 1e-3, float64(b) / 255}[kind%4]
		}
		m := demand.NewMap(l)
		for i, n := 0, 0; i+l < len(points) && n < 6; i, n = i+l+1, n+1 {
			var p grid.Point
			for a := 0; a < l; a++ {
				p[a] = int32(points[i+a] % 8)
			}
			if err := m.Add(p, 1+int64(points[i+l]%40)); err != nil {
				t.Fatal(err)
			}
		}
		lon := Longevity{Default: longevity(defKind, defB), Override: map[grid.Point]float64{}}
		var listed []grid.Point
		for i := 0; i+l+1 < len(vehicles) && len(listed) < 4; i += l + 2 {
			var p grid.Point
			for a := 0; a < l; a++ {
				p[a] = int32(vehicles[i+a]%16) - 4
			}
			lon.Override[p] = longevity(vehicles[i+l], vehicles[i+l+1])
			listed = append(listed, p)
		}
		got, err := LowerBound(m, lon)
		if lon.Default == 1 && len(listed) == 0 {
			if want, werr := lpchar.OmegaStarFlow(m); got != want || fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Fatalf("healthy fleet: LowerBound %v, %v; OmegaStarFlow %v, %v", got, err, want, werr)
			}
		} else if ref, rerr := bisectLowerBound(m, lon); !errors.Is(rerr, lpchar.ErrTooLarge) {
			if (err != nil) != (rerr != nil) || err == nil && math.Abs(got-ref) > 1e-8*math.Max(1, got) {
				t.Fatalf("LowerBound %v, %v; bisection %v, %v", got, err, ref, rerr)
			}
		}
		if err != nil {
			return
		}
		raised := Longevity{Default: lon.Default, Override: maps.Clone(lon.Override)}
		if i := int(raise) % (1 + len(listed)); i == 0 {
			raised.Default = max(raised.Default, longevity(raiseKind, raiseB))
		} else {
			raised.Override[listed[i-1]] = max(raised.Override[listed[i-1]], longevity(raiseKind, raiseB))
		}
		tol := 0.0
		if !zeroOne(lon) || !zeroOne(raised) {
			tol = 1e-9 * got
		}
		if v, err := LowerBound(m, raised); err != nil || v > got+tol {
			t.Fatalf("raising a longevity moved the bound from %v to %v, %v", got, v, err)
		}
		other, err := demand.PointMass(l, grid.P(3), 17)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lpchar.OmegaStarFlow(other); err != nil {
			t.Fatal(err)
		}
		if again, err := LowerBound(m, lon); err != nil || again != got {
			t.Fatalf("repeat call %v, %v; first %v", again, err, got)
		}
	})
}
