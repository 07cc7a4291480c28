package offline

import (
	"fmt"
	"math"

	"repro/internal/demand"
	"repro/internal/grid"
)

// This file realizes the thesis' two illustrated example strategies as
// concrete, verifier-checked schedules — turning the Figure 2.2 and Figure
// 2.3 pictures into executable constructions.

// LineStrategy builds the Figure 2.2 schedule for Example 2: demand d at
// every point of a horizontal line. Every vehicle within L1 distance
// floor(W2) of the line moves vertically to its nearest line point and
// serves with its remaining energy, where W2 solves W*(2W+1) = d. The
// returned schedule uses per-vehicle capacity 2*W2 (+1 rounding), exactly
// the thesis' claim.
func LineStrategy(start grid.Point, length int, d int64) (*Schedule, *demand.Map, error) {
	if length < 1 || d < 0 {
		return nil, nil, fmt.Errorf("offline: bad line strategy params length=%d d=%d", length, d)
	}
	m, err := demand.Line(start, length, d)
	if err != nil {
		return nil, nil, err
	}
	if d == 0 {
		return &Schedule{}, m, nil
	}
	// W2: the positive root of w(2w+1) = d.
	df := float64(d)
	w2 := (-1 + math.Sqrt(1+8*df)) / 4
	capacity := 2*w2 + 1 // +1 absorbs integer rounding of the band radius
	// Round the band radius: floor() collapses the band at near-integer
	// roots (floor(1-eps) = 0) and the pooled-capacity guarantee tolerates
	// r = round(w2) on both sides.
	r := int(math.Round(w2))
	// Each line point draws on at most its column of 2r+1 vehicles.
	sched := &Schedule{Plans: make([]VehiclePlan, 0, length*(2*r+1)), CubeSide: 2*r + 1, OmegaC: w2}
	y0 := start.Coord(1)
	for i := 0; i < length; i++ {
		x := start.Coord(0) + i
		remaining := d
		// The column of vehicles at offsets -r..r serves this line point.
		for dy := -r; dy <= r && remaining > 0; dy++ {
			home := grid.P(x, y0+dy)
			walk := float64(abs(dy))
			budget := int64(math.Floor(capacity - walk - 1e-9))
			if budget <= 0 {
				continue
			}
			serve := remaining
			if serve > budget {
				serve = budget
			}
			remaining -= serve
			pl := VehiclePlan{Home: home}
			if dy == 0 {
				pl.ServeHome = serve
			} else {
				pl.Moved = true
				pl.Dest = grid.P(x, y0)
				pl.ServeDest = serve
			}
			sched.Plans = append(sched.Plans, pl)
			if e := pl.Energy(); e > sched.W {
				sched.W = e
			}
		}
		if remaining > 0 {
			return nil, nil, fmt.Errorf("offline: line strategy short %d jobs at x=%d (W2=%v)",
				remaining, x, w2)
		}
	}
	return sched, m, nil
}

// PointStrategy builds the Figure 2.3 schedule for Example 3: demand d at a
// single point p. Every vehicle in the (2r+1) x (2r+1) square centered at p
// (r = floor(W3), W3 the root of W*(2W+1)^2 = d) walks to p and serves with
// what remains of capacity 3*W3 (+2 rounding slack), the thesis' claim.
func PointStrategy(p grid.Point, d int64) (*Schedule, *demand.Map, error) {
	if d < 0 {
		return nil, nil, fmt.Errorf("offline: negative demand %d", d)
	}
	m, err := demand.PointMass(2, p, d)
	if err != nil {
		return nil, nil, err
	}
	if d == 0 {
		return &Schedule{}, m, nil
	}
	df := float64(d)
	w3 := solveCubic(df)
	capacity := 3*w3 + 2
	// Round, not floor: see LineStrategy.
	r := int(math.Round(w3))
	// The point draws on at most the (2r+1) x (2r+1) square of vehicles.
	sched := &Schedule{Plans: make([]VehiclePlan, 0, (2*r+1)*(2*r+1)), CubeSide: 2*r + 1, OmegaC: w3}
	remaining := d
	for dx := -r; dx <= r && remaining > 0; dx++ {
		for dy := -r; dy <= r && remaining > 0; dy++ {
			home := p.Add(grid.P(dx, dy))
			walk := float64(abs(dx) + abs(dy))
			budget := int64(math.Floor(capacity - walk - 1e-9))
			if budget <= 0 {
				continue
			}
			serve := remaining
			if serve > budget {
				serve = budget
			}
			remaining -= serve
			pl := VehiclePlan{Home: home}
			if walk == 0 {
				pl.ServeHome = serve
			} else {
				pl.Moved = true
				pl.Dest = p
				pl.ServeDest = serve
			}
			sched.Plans = append(sched.Plans, pl)
			if e := pl.Energy(); e > sched.W {
				sched.W = e
			}
		}
	}
	if remaining > 0 {
		return nil, nil, fmt.Errorf("offline: point strategy short %d jobs (W3=%v)", remaining, w3)
	}
	return sched, m, nil
}

// solveCubic returns the positive root of w*(2w+1)^2 = d. PointStrategy's
// demand is an int64, whose root is below 2^21, far inside grid.Least's
// cap, so a search error can only be a bug and panics.
func solveCubic(d float64) float64 {
	w, err := grid.Least(func(w float64) (bool, error) { return w*(2*w+1)*(2*w+1) >= d, nil }, 0, 1, 1e-12)
	if err != nil {
		panic(err)
	}
	return w
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
