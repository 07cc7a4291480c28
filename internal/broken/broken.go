// Package broken reproduces thesis Chapter 4: CMVRP when vehicles may break
// down. Each vehicle i has a longevity parameter p_i in [0,1] and dies after
// spending a fraction p_i of its initial energy. The package computes the
// linear-programming lower bound of Theorem 4.1.1 (supply p_i*omega within
// radius p_i*omega) and reconstructs the Figure 4.1 example showing that —
// unlike the healthy case — the LP bound is not tight: arrival *order*
// matters, and the true requirement grows quadratically while the LP bound
// stays linear.
package broken

import (
	"fmt"
	"math"

	"repro/internal/demand"
	"repro/internal/flow"
	"repro/internal/grid"
	"repro/internal/lpchar"
)

// Longevity maps positions to p_i. Positions absent from Override get
// Default. Default covers the infinitely many unlisted vehicles.
type Longevity struct {
	Default  float64
	Override map[grid.Point]float64
}

// At returns p_i for the vehicle at x.
func (l Longevity) At(x grid.Point) float64 {
	if v, ok := l.Override[x]; ok {
		return v
	}
	return l.Default
}

// Validate checks all parameters lie in [0,1]; NaN does not.
func (l Longevity) Validate() error {
	if !(l.Default >= 0 && l.Default <= 1) {
		return fmt.Errorf("broken: default longevity %v outside [0,1]", l.Default)
	}
	for p, v := range l.Override {
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("broken: longevity %v at %v outside [0,1]", v, p)
		}
	}
	return nil
}

// feasible reports whether capacity omega satisfies LP (4.1): every vehicle
// i supplies at most p_i*omega within radius p_i*omega.
func feasible(m *demand.Map, lon Longevity, omega float64) (bool, error) {
	total := float64(m.Total())
	if total == 0 {
		return true, nil
	}
	if omega <= 0 {
		return false, nil
	}
	// Suppliers: lattice points i with p_i*omega >= dist(i, some demand).
	// The candidate region is the support's neighborhoods of radius
	// maxP*omega, the ball's offsets listed once and translated to each
	// support point, so a radius whose ball LP (2.1)'s solver could not list
	// either is refused before anything is allocated.
	maxP := lon.Default
	for _, v := range lon.Override {
		if v > maxP {
			maxP = v
		}
	}
	maxR := int(math.Floor(maxP * omega))
	if err := lpchar.CheckRadius(m.Dim(), maxR); err != nil {
		return false, fmt.Errorf("broken: capacity %v: %w", omega, err)
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

// LowerBound computes the Theorem 4.1.1 lower bound on Woff-b: the value of
// LP (4.1), found by binary search on omega with the flow feasibility
// oracle. The search bracket doubles from 1 until feasible.
func LowerBound(m *demand.Map, lon Longevity) (float64, error) {
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
			return 0, fmt.Errorf("broken: no feasible omega below 1e12 (all longevities zero near demand?)")
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
