package offline

import (
	"fmt"
	"math"

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
// because the demand in each cube is at most omega_c*(3*ceil(omega_c))^l =
// B * cubeVolume.
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
// its API boundary (the verifier).
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
	// at home and B away, so B = omega*3^l.
	budget := float64(pow(3, l)) * char.Omega
	sched := &Schedule{CubeSide: s, OmegaC: char.Omega}
	// Process each aligned cube independently (clipped at arena edges).
	var corner [grid.MaxDim]int
	if err := d.buildCubes(sched, s, budget, corner, 0, l); err != nil {
		return nil, err
	}
	return sched, nil
}

func (d *Dense) buildCubes(sched *Schedule, s int,
	budget float64, corner [grid.MaxDim]int, axis, l int) error {
	arena := d.arena
	if axis < l {
		for c := 0; c < arena.Size(axis); c += s {
			corner[axis] = c
			if err := d.buildCubes(sched, s, budget, corner, axis+1, l); err != nil {
				return err
			}
		}
		return nil
	}
	var lo, hi grid.Point
	for i := 0; i < l; i++ {
		lo[i] = int32(corner[i])
		h := corner[i] + s - 1
		if h >= arena.Size(i) {
			h = arena.Size(i) - 1
		}
		hi[i] = int32(h)
	}
	cube, err := grid.NewBox(l, lo, hi)
	if err != nil {
		return err
	}
	return d.buildOneCube(cube, sched, budget)
}

// buildOneCube runs the two-phase assignment inside one cube.
func (d *Dense) buildOneCube(cube grid.Box, sched *Schedule, budget float64) error {
	cells := cube.Points()
	// Round the per-vehicle service budget B = 3^l*omega *up*: the helper
	// count guarantee sum ceil(L(x)/Bi) <= cubeVolume needs B/Bi <= 1.
	ibudget := int64(math.Ceil(budget))
	if ibudget < 1 {
		ibudget = 1
	}
	// Phase 1: serve at home.
	leftover := make(map[grid.Point]int64)
	plans := make(map[grid.Point]*VehiclePlan, len(cells))
	anyDemand := false
	for _, p := range cells {
		dp := d.At(p)
		if dp > 0 {
			anyDemand = true
		}
		serve := dp
		if serve > ibudget {
			serve = ibudget
		}
		if serve > 0 {
			plans[p] = &VehiclePlan{Home: p, ServeHome: serve}
		}
		if rest := dp - serve; rest > 0 {
			leftover[p] = rest
		}
	}
	if !anyDemand {
		return nil
	}
	// Phase 2: helpers. Iterate cells deterministically; a helper is any
	// vehicle not yet assigned a move. Each helper serves up to ibudget jobs
	// at one leftover position.
	helperIdx := 0
	for _, x := range cells {
		rest := leftover[x]
		for rest > 0 {
			// Find the next unmoved vehicle.
			var helper grid.Point
			found := false
			for ; helperIdx < len(cells); helperIdx++ {
				h := cells[helperIdx]
				if pl, ok := plans[h]; ok && pl.Moved {
					continue
				}
				helper = h
				found = true
				helperIdx++
				break
			}
			if !found {
				return fmt.Errorf("offline: cube %v..%v ran out of helpers (omega too small: leftover %d at %v)",
					cube.Lo, cube.Hi, rest, x)
			}
			serve := rest
			if serve > ibudget {
				serve = ibudget
			}
			pl := plans[helper]
			if pl == nil {
				pl = &VehiclePlan{Home: helper}
				plans[helper] = pl
			}
			pl.Moved = true
			pl.Dest = x
			pl.ServeDest = serve
			rest -= serve
		}
	}
	for _, p := range cells {
		if pl, ok := plans[p]; ok {
			sched.Plans = append(sched.Plans, *pl)
			if e := pl.Energy(); e > sched.W {
				sched.W = e
			}
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
