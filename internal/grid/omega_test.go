package grid

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestSolveOmegaZeroDemand(t *testing.T) {
	b := mustBox(t, 2, P(0, 0), P(3, 3))
	if got := SolveOmega(b, 0); got != 0 {
		t.Errorf("SolveOmega(0) = %v", got)
	}
	if got := SolveOmega(b, -5); got != 0 {
		t.Errorf("SolveOmega(-5) = %v", got)
	}
}

func TestSolveOmegaSatisfiesEquation(t *testing.T) {
	// The returned omega must be the infimum omega with LHS(omega) >= D:
	// LHS at omega is >= D (up to float slack), and LHS just below is < D.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		dim := 1 + rng.Intn(3)
		var lo, hi Point
		for i := 0; i < dim; i++ {
			lo[i] = int32(rng.Intn(6))
			hi[i] = lo[i] + int32(rng.Intn(8))
		}
		b, err := NewBox(dim, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		d := math.Exp(rng.Float64()*14) + 0.5 // demands across 6 decades
		omega := SolveOmega(b, d)
		if omega <= 0 {
			t.Fatalf("omega = %v for demand %v", omega, d)
		}
		lhs := OmegaLHS(b, omega)
		if lhs < d*(1-1e-9) {
			t.Errorf("LHS(%v)=%v < demand %v (dim %d box %v..%v)",
				omega, lhs, d, dim, lo, hi)
		}
		below := omega * (1 - 1e-9)
		if math.Floor(below) == math.Floor(omega) { // same step segment
			if l := OmegaLHS(b, below); l > d*(1+1e-9) && omega > 1e-9 {
				t.Errorf("LHS just below omega (%v) = %v still exceeds demand %v",
					below, l, d)
			}
		}
	}
}

func TestSolveOmegaMonotoneInDemand(t *testing.T) {
	b := mustBox(t, 2, P(0, 0), P(4, 4))
	prev := 0.0
	for d := 1.0; d < 1e9; d *= 3 {
		omega := SolveOmega(b, d)
		if omega < prev {
			t.Fatalf("omega not monotone: d=%v gave %v after %v", d, omega, prev)
		}
		prev = omega
	}
}

func TestSolveOmegaPointAsymptotics(t *testing.T) {
	// Example 3 of the thesis (2-D point demand): capacity scales as d^(1/3).
	// The informal example uses the square (2W+1)^2 neighborhood; the formal
	// N_r is the L1 ball |N_r| = 2r^2+2r+1, so omega*2*omega^2 ~ d and
	// omega ~ (d/2)^(1/3). Same Theta, different constant.
	pt := mustBox(t, 2, P(0, 0), P(0, 0))
	d := 4e12
	omega := SolveOmega(pt, d)
	want := math.Cbrt(d / 2)
	if ratio := omega / want; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("point omega = %v, asymptotic %v (ratio %v)", omega, want, ratio)
	}
}

func TestSolveOmegaLineAsymptotics(t *testing.T) {
	// Example 2: demand d at every point of a long line; per the thesis
	// W2(2*W2+1) = d, so omega ~ sqrt(d/2) for a line much longer than omega.
	line := mustBox(t, 2, P(0, 0), P(100000, 0))
	perPoint := 5000.0
	d := perPoint * 100001
	omega := SolveOmega(line, d)
	want := math.Sqrt(perPoint / 2)
	if ratio := omega / want; ratio < 0.85 || ratio > 1.15 {
		t.Errorf("line omega = %v, asymptotic %v (ratio %v)", omega, want, ratio)
	}
}

func TestSolveOmegaSquareApproachesDemand(t *testing.T) {
	// Example 1: demand d per point of an a x a square; as a -> infinity,
	// omega -> d (the square dominates its own boundary ring).
	d := 50.0
	for _, a := range []int{10, 100, 1000, 5000} {
		sq := mustBox(t, 2, P(0, 0), P(a-1, a-1))
		omega := SolveOmega(sq, d*float64(a)*float64(a))
		if a >= 1000 {
			if omega < 0.8*d || omega > d {
				t.Errorf("a=%d: omega=%v should approach d=%v", a, omega, d)
			}
		}
		if omega > d {
			t.Errorf("a=%d: omega=%v exceeds per-point demand %v", a, omega, d)
		}
	}
}

// OmegaLHS evaluates omega * |N_floor(omega)(T)|, the left-hand side of
// equation (1.1), for diagnostics and tests.
func OmegaLHS(b Box, omega float64) float64 {
	if omega <= 0 {
		return 0
	}
	return omega * NeighborhoodCountFloat(b, math.Floor(omega))
}

// doubleProbeSearch is the search loop of the capacity searches as they
// stood before Least: hi doubles with lo fixed until a probe succeeds, then
// [lo, hi] is bisected at (lo+hi)/2 down to tol·max(1, hi). From a bracket
// [lo, lo] it probes lo a second time after the doubling, as online's Won
// search once did; from [lo, hi] it never probes lo, as the greedy search
// and the transfer bound's search never did. It is the reference answer for
// Least.
func doubleProbeSearch(feasible func(float64) (bool, error), lo, hi, tol float64) (float64, error) {
	start := hi
	for {
		ok, err := feasible(hi)
		if err != nil {
			return 0, err
		}
		if ok {
			break
		}
		hi *= 2
		if hi > 1e12 {
			return 0, errors.New("no feasible value below 1e12")
		}
	}
	if start == lo {
		if okLo, err := feasible(lo); err != nil {
			return 0, err
		} else if okLo {
			return lo, nil
		}
	}
	for hi-lo > tol*math.Max(1, hi) {
		mid := (lo + hi) / 2
		ok, err := feasible(mid)
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

// TestBracketBisectProbesOnce drives Least with threshold tests from the
// three bracket shapes its callers use — [lo, lo] (the Won search), [1, 2]
// (the greedy search) and [0, 1] (the transfer bound and the thesis roots)
// — over random starts, tolerances and thresholds, including thresholds at
// or below the first probe, at a bracket point and beyond the 1e12 cap. No
// value may be probed twice, lo only from [lo, lo], the answer (or error)
// must equal the reference loop's, and past the cap the error is
// ErrNoFeasible.
func TestBracketBisectProbesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 3000; trial++ {
		lo, hi := 0.0, 1.0
		switch trial % 3 {
		case 0:
			lo = 2 + rng.ExpFloat64()*50
			hi = lo
		case 1:
			lo, hi = 1, 2
		}
		tol := math.Pow(10, -1-11*rng.Float64())
		if trial%10 == 0 {
			tol = minLeastTol
		}
		var threshold float64
		switch trial / 3 % 5 {
		case 0:
			threshold = hi * rng.Float64() // the first probe is feasible
		case 1:
			threshold = hi * math.Pow(2, float64(rng.Intn(10))) // a bracket point
		case 2:
			threshold = 2 * maxLeast * (1 + rng.Float64()) // infeasible
		default:
			threshold = hi * math.Pow(2, 12*rng.Float64())
		}
		probes := map[float64]int{}
		oracle := func(w float64) (bool, error) {
			probes[w]++
			return w >= threshold, nil
		}
		got, err := Least(oracle, lo, hi, tol)
		for w, n := range probes {
			if n > 1 {
				t.Fatalf("[%v, %v] tol %v threshold %v: %v probed %d times", lo, hi, tol, threshold, w, n)
			}
		}
		if lo != hi && probes[lo] > 0 {
			t.Fatalf("[%v, %v] tol %v threshold %v: lo probed", lo, hi, tol, threshold)
		}
		if threshold > 2*maxLeast && !errors.Is(err, ErrNoFeasible) {
			t.Fatalf("[%v, %v] threshold %v past the cap: got %v (%v), want ErrNoFeasible", lo, hi, threshold, got, err)
		}
		want, wantErr := doubleProbeSearch(oracle, lo, hi, tol)
		if got != want || (err == nil) != (wantErr == nil) {
			t.Fatalf("[%v, %v] tol %v threshold %v: got %v (%v), reference %v (%v)",
				lo, hi, tol, threshold, got, err, want, wantErr)
		}
	}
}

// TestLeastRejectsBadInput pins that Least refuses, before its first probe,
// a bracket that is not finite with 0 <= lo <= hi and hi > 0, and a
// tolerance that is NaN, +Inf or below 2^-52, at which a bracket of two
// adjacent floats would be bisected forever; that it accepts the edges of
// those ranges; and that a probe's error comes back unchanged.
func TestLeastRejectsBadInput(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name        string
		lo, hi, tol float64
		ok          bool
	}{
		{"lo NaN", nan, 1, 0.01, false},
		{"lo -Inf", -inf, 1, 0.01, false},
		{"lo +Inf", inf, inf, 0.01, false},
		{"lo -1", -1, 1, 0.01, false},
		{"hi NaN", 0, nan, 0.01, false},
		{"hi +Inf", 0, inf, 0.01, false},
		{"hi 0", 0, 0, 0.01, false},
		{"hi below lo", 2, 1, 0.01, false},
		{"tol NaN", 1, 1, nan, false},
		{"tol +Inf", 1, 1, inf, false},
		{"tol 0", 1, 1, 0, false},
		{"tol -1", 1, 1, -1, false},
		{"tol 2^-53", 1, 1, 0x1p-53, false},
		{"tol 2^-52 from [0, 1]", 0, 1, 0x1p-52, true},
		{"hi the largest float", 0, math.MaxFloat64, 1, true},
		{"hi the least subnormal", 0, 5e-324, 0.5, true},
	} {
		probes := 0
		_, err := Least(func(float64) (bool, error) { probes++; return true, nil }, tc.lo, tc.hi, tc.tol)
		if tc.ok && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !tc.ok && (err == nil || probes > 0) {
			t.Errorf("%s: error %v after %d probes, want an error before any probe", tc.name, err, probes)
		}
	}
	errProbe := errors.New("probe failed")
	probes := 0
	_, err := Least(func(w float64) (bool, error) {
		if probes++; probes == 3 {
			return false, errProbe
		}
		return w >= 5, nil
	}, 0, 1, 1e-9)
	if err != errProbe {
		t.Errorf("probe error came back as %v", err)
	}
}

// FuzzLeast drives Least with the threshold test x >= t over fuzzed lo, hi,
// tol and t. It must not panic; it errs exactly when the inputs are invalid
// (then before any probe) or when the doubling bracket passes 1e12 below t
// (then with ErrNoFeasible); otherwise it answers a value x the test
// accepted with x - max(t, lo) <= tol·max(1, x). No value is probed twice,
// and lo only from a bracket [lo, lo].
func FuzzLeast(f *testing.F) {
	f.Add(2.0, 2.0, 0.05, 7.0)     // the Won search's bracket
	f.Add(1.0, 2.0, 0.01, 1.5)     // the greedy search's
	f.Add(0.0, 1.0, 1e-9, 5.0)     // the transfer bound's
	f.Add(0.0, 1.0, 1e-12, 4.0)    // the thesis roots', at a bracket point
	f.Add(3.0, 3.0, 0x1p-52, 3e12) // past the cap
	f.Add(0.0, 1.0, 0.0, 1.0)      // a tolerance below 2^-52
	f.Fuzz(func(t *testing.T, lo, hi, tol, thr float64) {
		probes := map[float64]int{}
		x, err := Least(func(w float64) (bool, error) {
			probes[w]++
			return w >= thr, nil
		}, lo, hi, tol)
		valid := 0 <= lo && lo <= hi && hi > 0 && !math.IsInf(hi, 1) && tol >= minLeastTol && !math.IsInf(tol, 1)
		if !valid {
			if err == nil || len(probes) > 0 {
				t.Fatalf("invalid [%v, %v] tol %v: %v (%v) after %d probes", lo, hi, tol, x, err, len(probes))
			}
			return
		}
		for w, n := range probes {
			if n > 1 {
				t.Fatalf("[%v, %v] tol %v t %v: %v probed %d times", lo, hi, tol, thr, w, n)
			}
		}
		if lo != hi && probes[lo] > 0 {
			t.Fatalf("[%v, %v] tol %v t %v: lo probed", lo, hi, tol, thr)
		}
		top := hi // the bracket's last probe before the cap
		for top*2 <= maxLeast {
			top *= 2
		}
		if !(top >= thr) {
			if !errors.Is(err, ErrNoFeasible) {
				t.Fatalf("[%v, %v] tol %v t %v past the cap: %v (%v), want ErrNoFeasible", lo, hi, tol, thr, x, err)
			}
			return
		}
		if err != nil || !(x >= thr) || probes[x] != 1 {
			t.Fatalf("[%v, %v] tol %v t %v: %v (%v) is not an accepted probe", lo, hi, tol, thr, x, err)
		}
		if x-math.Max(thr, lo) > tol*math.Max(1, x) {
			t.Fatalf("[%v, %v] tol %v t %v: %v is farther than tol from the least feasible value", lo, hi, tol, thr, x)
		}
	})
}
