package grid

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
	// Find the integer radius bracket R with
	//   R*count(R) <= demand <= (R+1)*count(R+1-eps) ...
	// i.e. smallest R such that (R+1)*count(R) >= demand, by exponential
	// search then binary search on f(R) = (R+1)*count(R).
	f := func(r int64) float64 {
		return float64(r+1) * NeighborhoodCountFloat(b, float64(r))
	}
	var hi int64 = 1
	for f(hi) < demand {
		hi *= 2
		if hi > 1<<40 {
			// Demand astronomically large relative to box; fall back to the
			// asymptotic omega ~ (demand / 2^l)^(1/(l+1)) bracket and keep
			// doubling from there. In practice unreachable for int64 job
			// counts, but never loop forever.
			break
		}
	}
	lo := int64(0)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if f(mid) >= demand {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	r := lo // smallest R with (R+1)*count(R) >= demand
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
