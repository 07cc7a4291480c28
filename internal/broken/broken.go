// Package broken reproduces thesis Chapter 4: CMVRP when vehicles may break
// down. Each vehicle i has a longevity parameter p_i in [0,1] and dies after
// spending a fraction p_i of its initial energy. The package gives the
// linear-programming lower bound of Theorem 4.1.1 (supply p_i*omega within
// radius p_i*omega, solved by lpchar.FleetBound) and reconstructs the Figure
// 4.1 example showing that — unlike the healthy case — the LP bound is not
// tight: arrival *order* matters, and the true requirement grows
// quadratically while the LP bound stays linear.
package broken

import (
	"fmt"

	"repro/internal/demand"
	"repro/internal/grid"
	"repro/internal/lpchar"
)

// Longevity maps positions to p_i. Positions absent from Override get
// Default. Default covers the infinitely many unlisted vehicles.
type Longevity struct {
	Default  float64
	Override map[grid.Point]float64
}

// Validate checks all parameters lie in [0,1]; NaN does not. Of several
// bad Override entries it names the least position.
func (l Longevity) Validate() error {
	if !(l.Default >= 0 && l.Default <= 1) {
		return fmt.Errorf("broken: default longevity %v outside [0,1]", l.Default)
	}
	if p, v, ok := grid.LeastKey(l.Override, func(_ grid.Point, v float64) bool {
		return !(v >= 0 && v <= 1)
	}); ok {
		return fmt.Errorf("broken: longevity %v at %v outside [0,1]", v, p)
	}
	return nil
}

// LowerBound computes the Theorem 4.1.1 lower bound on Woff-b: the value of
// LP (4.1), with lpchar.FleetBound's precision and errors.
func LowerBound(m *demand.Map, lon Longevity) (float64, error) {
	if err := lon.Validate(); err != nil {
		return 0, err
	}
	return lpchar.FleetBound(m, lon.Default, lon.Override)
}

// Fig41 is the thesis Figure 4.1 scenario: demand points i and j at mutual
// distance 2*r1 with the only usable vehicle k midway between them; all
// other vehicles within distance r2 of k are broken from the start (p=0) and
// vehicles beyond the circle (p=1) are too far to matter when r2 >> r1.
// Requests alternate i, j, i, j, ... with r1 jobs at each point.
type Fig41 struct {
	R1, R2  int
	I, J, K grid.Point
	Demand  *demand.Map
	Arrival *demand.Sequence
	Lon     Longevity
}

// NewFig41 constructs the scenario in 2-D, centered at the origin.
func NewFig41(r1, r2 int) (*Fig41, error) {
	if r1 < 1 {
		return nil, fmt.Errorf("broken: r1 %d must be >= 1", r1)
	}
	if r2 < 6*r1 {
		// The thesis needs r2 >> r1 so that healthy vehicles outside the
		// circle stay unreachable at omega ~ r1 scale; 6*r1 keeps them out
		// of reach even for the binary search's doubling overshoot.
		return nil, fmt.Errorf("broken: r2 %d must be at least 6*r1 (thesis needs r2 >> r1)", r2)
	}
	k := grid.P(0, 0)
	i := grid.P(-r1, 0)
	j := grid.P(r1, 0)
	m, seq, err := demand.Alternating(2, i, j, int64(r1))
	if err != nil {
		return nil, err
	}
	// Vehicles inside the circle of radius r2 around k are broken (p=0),
	// except k itself.
	over := make(map[grid.Point]float64)
	for _, d := range grid.AppendBall(nil, 2, r2) {
		over[k.Add(d)] = 0
	}
	over[k] = 1
	return &Fig41{
		R1: r1, R2: r2, I: i, J: j, K: k,
		Demand:  m,
		Arrival: seq,
		Lon:     Longevity{Default: 1, Override: over},
	}, nil
}

// LPBound returns the Theorem 4.1.1 lower bound for the scenario. The thesis
// shows it equals 2*r1 (vehicle k ships r1 to each of i and j).
func (f *Fig41) LPBound() (float64, error) {
	return LowerBound(f.Demand, f.Lon)
}

// TrueRequirement simulates the only strategy available to vehicle k —
// walking back and forth between i and j as requests alternate — and returns
// the exact energy it needs: travel plus 2*r1 service units. The thesis
// computes the travel as r1 + (2*r1 - 1) * 2*r1, quadratic in r1 while the
// LP bound is linear: the bound is not tight once breakdowns are allowed.
func (f *Fig41) TrueRequirement() float64 {
	pos := f.K
	energy := 0.0
	for idx := 0; idx < f.Arrival.Len(); idx++ {
		target := f.Arrival.At(idx)
		energy += float64(grid.Manhattan(pos, target)) // walk
		energy++                                       // serve
		pos = target
	}
	return energy
}

// TravelFormula returns the closed-form travel distance from the thesis'
// Section 4.2 analysis: r1 + (2*r1 - 1) * 2*r1.
func (f *Fig41) TravelFormula() float64 {
	r1 := float64(f.R1)
	return r1 + (2*r1-1)*2*r1
}
