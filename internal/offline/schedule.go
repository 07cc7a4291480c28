package offline

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/demand"
	"repro/internal/grid"
)

// VehiclePlan is the offline itinerary of one vehicle under Lemma 2.2.5's
// constructive strategy: serve some jobs at home, optionally move once, and
// serve some jobs at the destination.
type VehiclePlan struct {
	Home      grid.Point
	ServeHome int64
	// Moved is false for vehicles that stay at home; Dest/ServeDest are then
	// meaningless.
	Moved     bool
	Dest      grid.Point
	ServeDest int64
}

// Energy returns the total energy this plan consumes.
func (v VehiclePlan) Energy() float64 {
	e := float64(v.ServeHome)
	if v.Moved {
		e += float64(grid.Manhattan(v.Home, v.Dest)) + float64(v.ServeDest)
	}
	return e
}

// Schedule is a complete offline solution: one plan per vehicle that moves
// or serves, plus the capacity it certifies.
type Schedule struct {
	// Plans lists every vehicle with nonzero activity.
	Plans []VehiclePlan
	// W is the maximum per-vehicle energy consumed — the capacity this
	// schedule certifies as sufficient.
	W float64
	// CubeSide is the partition granularity used (ceil(omega_c)).
	CubeSide int
	// OmegaC is the cube characterization value the construction was sized
	// from.
	OmegaC float64
}

// BuildSchedule realizes Lemma 2.2.5 constructively: it partitions the arena
// into aligned ceil(omega_c)-cubes, lets every vehicle first serve up to
// B = 3^l * omega_c jobs at its own position, then assigns surplus demand to
// helper vehicles from the same cube, each of which moves once and serves up
// to B jobs at its destination. The thesis guarantees enough helpers exist
// in every full cube because the demand in each cube is at most
// omega_c*(3*ceil(omega_c))^l = B * cubeVolume.
func BuildSchedule(m *demand.Map, arena *grid.Grid) (*Schedule, error) {
	if m.Total() == 0 {
		return &Schedule{}, nil
	}
	d, err := NewDense(m, arena)
	if err != nil {
		return nil, err
	}
	char, err := d.OmegaC()
	if err != nil {
		return nil, err
	}
	return d.BuildSchedule(char)
}

// BuildSchedule is the Lemma 2.2.5 construction on the shared dense view:
// cube demand sums and per-cell lookups go through the dense value array, so
// the full SolveOffline pipeline touches the point-keyed demand map only at
// its API boundary (the verifier). The lemma assumes full cubes: when a cube
// clipped by the arena's far faces runs out of helpers, the error wraps
// ErrBoundaryCube.
func (d *Dense) BuildSchedule(char CubeChar) (*Schedule, error) {
	m, arena := d.m, d.arena
	if m.Total() == 0 {
		return &Schedule{}, nil
	}
	if char.Omega <= 0 {
		return nil, fmt.Errorf("offline: omega %v must be positive for nonzero demand", char.Omega)
	}
	l := arena.Dim()
	s := char.Side
	if s < 1 {
		s = int(math.Ceil(char.Omega))
		if s < 1 {
			s = 1
		}
	}
	// The per-vehicle budget covers a cube's worst-case demand share:
	// demand <= omega*(3s)^l spread over s^l vehicles each serving up to B
	// at home and B away, so B = omega*3^l. Round it *up*: the helper count
	// guarantee sum ceil(L(x)/Bi) <= cubeVolume needs B/Bi <= 1.
	b := cubeBuilder{d: d, sched: &Schedule{CubeSide: s, OmegaC: char.Omega}}
	b.budget = max(int64(math.Ceil(float64(pow(3, l))*char.Omega)), 1)
	// Visit the arena's side-s tiles in row-major order of their low
	// corners, each clipped at the arena's far faces.
	for c := range arena.Tiles(s) {
		if err := b.build(arena.Tile(s, c)); err != nil {
			return nil, err
		}
	}
	return b.sched, nil
}

// ErrBoundaryCube reports that a cube clipped by the arena's far faces has
// too few vehicles for its demand. Lemma 2.2.5 counts helpers in full
// cubes, so a finite arena can break its construction there.
var ErrBoundaryCube = errors.New("offline: a boundary cube clipped by the arena has too few vehicles")

// cubeBuilder runs Lemma 2.2.5's two phases cube by cube, reusing one buffer
// of cells and one plan slot per cell across the cubes of a schedule.
type cubeBuilder struct {
	d      *Dense
	sched  *Schedule
	budget int64 // jobs one vehicle serves at home, and again at its destination
	cells  []grid.Point
	plans  []VehiclePlan // plans[k] belongs to the vehicle at cells[k]
}

// build assigns the vehicles of one cube, appending the plans of those that
// serve or move to the schedule in the cube's row-major cell order.
func (b *cubeBuilder) build(cube grid.Box, full bool) error {
	b.cells = cube.AppendPoints(b.cells[:0])
	b.plans = slices.Grow(b.plans[:0], len(b.cells))[:len(b.cells)]
	// Phase 1: serve at home.
	anyDemand := false
	for k, p := range b.cells {
		dp := b.d.At(p)
		anyDemand = anyDemand || dp > 0
		b.plans[k] = VehiclePlan{Home: p, ServeHome: min(dp, b.budget)}
	}
	if !anyDemand {
		return nil
	}
	// Phase 2: helpers. Iterate cells deterministically; a helper is any
	// vehicle not yet assigned a move. Each helper serves up to the budget
	// at one leftover position.
	helper := 0
	for k, x := range b.cells {
		for rest := b.d.At(x) - b.plans[k].ServeHome; rest > 0; helper++ {
			for helper < len(b.plans) && b.plans[helper].Moved {
				helper++
			}
			if helper == len(b.plans) {
				if !full {
					return fmt.Errorf("offline: cube %v..%v ran out of helpers (leftover %d at %v): %w",
						cube.Lo, cube.Hi, rest, x, ErrBoundaryCube)
				}
				return fmt.Errorf("offline: cube %v..%v ran out of helpers (omega too small: leftover %d at %v)",
					cube.Lo, cube.Hi, rest, x)
			}
			pl := &b.plans[helper]
			pl.Moved, pl.Dest, pl.ServeDest = true, x, min(rest, b.budget)
			rest -= pl.ServeDest
		}
	}
	for _, pl := range b.plans {
		if pl.ServeHome > 0 || pl.Moved {
			b.sched.Plans = append(b.sched.Plans, pl)
			b.sched.W = max(b.sched.W, pl.Energy())
		}
	}
	return nil
}

// VerifySchedule checks that a schedule is feasible and complete: every job
// is served, no vehicle appears twice, every vehicle's energy is within
// capacity, and helpers only serve where demand exists. Returns the maximum
// per-vehicle energy observed.
func VerifySchedule(m *demand.Map, sched *Schedule, capacity float64) (float64, error) {
	served := make(map[grid.Point]int64)
	seen := make(map[grid.Point]bool)
	maxE := 0.0
	for i, pl := range sched.Plans {
		if seen[pl.Home] {
			return 0, fmt.Errorf("offline: vehicle at %v appears twice (plan %d)", pl.Home, i)
		}
		seen[pl.Home] = true
		if pl.ServeHome < 0 || pl.ServeDest < 0 {
			return 0, fmt.Errorf("offline: negative service in plan %d", i)
		}
		served[pl.Home] += pl.ServeHome
		if pl.Moved {
			served[pl.Dest] += pl.ServeDest
		} else if pl.ServeDest != 0 {
			return 0, fmt.Errorf("offline: unmoved vehicle %v claims dest service", pl.Home)
		}
		e := pl.Energy()
		if e > capacity+1e-9 {
			return 0, fmt.Errorf("offline: vehicle %v uses %v > capacity %v", pl.Home, e, capacity)
		}
		if e > maxE {
			maxE = e
		}
	}
	for _, p := range m.Support() {
		if served[p] != m.At(p) {
			return 0, fmt.Errorf("offline: position %v served %d of %d jobs",
				p, served[p], m.At(p))
		}
	}
	for p, s := range served {
		if s > m.At(p) {
			return 0, fmt.Errorf("offline: position %v over-served (%d > %d)", p, s, m.At(p))
		}
	}
	return maxE, nil
}
