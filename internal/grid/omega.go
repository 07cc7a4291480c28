package grid

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// SolveOmega solves equation (1.1) of the thesis for an axis-aligned box T:
//
//	omega_T * |N_{omega_T}(T)| = demand
//
// where the neighborhood radius is effectively floor(omega) because lattice
// distances are integers. The left-hand side is strictly increasing in omega
// (piecewise linear with upward jumps at integers), so a unique crossing
// exists; at a jump we return the jump point, i.e. the smallest omega with
// omega*|N_floor(omega)(T)| >= demand. demand <= 0 yields 0.
func SolveOmega(b Box, demand float64) float64 {
	if demand <= 0 {
		return 0
	}
	// The smallest integer radius R with f(R) = (R+1)*count(R) >= demand,
	// by doubling then sort.Search. A demand astronomically large relative
	// to the box stops the doubling at 2^41, unreachable for int64 job
	// counts, so the loop always ends.
	f := func(r int) float64 {
		return float64(r+1) * NeighborhoodCountFloat(b, float64(r))
	}
	hi := 1
	for hi <= 1<<40 && f(hi) < demand {
		hi *= 2
	}
	r := sort.Search(hi, func(r int) bool { return f(r) >= demand })
	count := NeighborhoodCountFloat(b, float64(r))
	if count <= 0 {
		return 0
	}
	omega := demand / count
	// omega must lie in [r, r+1]; below r means the crossing happened at the
	// jump up to count(r), so the infimum solution is exactly r.
	if omega < float64(r) {
		return float64(r)
	}
	if omega > float64(r+1) {
		return float64(r + 1)
	}
	return omega
}

// maxLeast bounds Least's doubling bracket: once it passes this value the
// test is declared never to hold.
const maxLeast = 1e12

// minLeastTol is the finest relative tolerance a bisection can meet: float64
// values near hi are up to hi·2⁻⁵² apart, so at a finer tolerance a bracket
// of two adjacent floats would be bisected forever.
const minLeastTol = 0x1p-52

// ErrNoFeasible is Least's error when its bracket passes 1e12 before the
// test holds.
var ErrNoFeasible = errors.New("grid: no feasible value below 1e12")

// Least is the program's search for the least value at which a monotone
// test holds: the capacity searches, Theorem 5.1.1's transfer bound and the
// Section 2.1 roots. It probes hi, doubling it with lo fixed until ok holds,
// then bisects [lo, hi] while hi−lo > tol·max(1, hi) and returns hi, which
// ok accepted. lo itself is probed only when hi == lo (and is then the
// answer if it passes), and no value is probed twice, so ok may be an
// expensive run. A probe's error comes back unchanged.
//
// lo and hi must be finite with 0 <= lo <= hi and hi > 0, and tol must be
// finite and at least 2^-52.
func Least(ok func(float64) (bool, error), lo, hi, tol float64) (float64, error) {
	if !(0 <= lo && lo <= hi && hi > 0) || math.IsInf(hi, 1) {
		return 0, fmt.Errorf("grid: search bracket [%v, %v] must be finite with 0 <= lo <= hi and hi > 0", lo, hi)
	}
	if !(tol >= minLeastTol) || math.IsInf(tol, 1) {
		return 0, fmt.Errorf("grid: search tolerance %v must be finite and at least 2^-52", tol)
	}
	failed := math.NaN() // the last bracket probe that failed
	for {
		pass, err := ok(hi)
		if err != nil {
			return 0, err
		}
		if pass {
			break
		}
		failed = hi
		if hi *= 2; hi > maxLeast {
			return 0, ErrNoFeasible
		}
	}
	for hi-lo > tol*math.Max(1, hi) {
		// Halving first keeps the sum finite near the float64 maximum;
		// elsewhere this is (lo+hi)/2 to the bit, unless lo is subnormal.
		mid := lo/2 + hi/2
		if mid == failed {
			// From lo = 0 the first midpoint is the bracket's last probe.
			lo = mid
			continue
		}
		pass, err := ok(mid)
		if err != nil {
			return 0, err
		}
		if pass {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}
