package grid

import (
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
