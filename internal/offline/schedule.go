package offline

import (
	"errors"
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

// BuildSchedule realizes Lemma 2.2.5 constructively on the shared dense
// view: it partitions the arena into aligned ceil(omega_c)-cubes, lets every
// vehicle first serve up to B = 3^l * omega_c jobs at its own position, then
// assigns surplus demand to helper vehicles from the same cube, each of
// which moves once and serves up to B jobs at its destination. The thesis
// guarantees enough helpers exist in every full cube because the demand in
// each cube is at most omega_c*(3*ceil(omega_c))^l = B * cubeVolume. It
// visits only the cubes that meet the demand's bounding box, and reads each
// cell's demand from the summed-area table. The lemma assumes full cubes:
// when a cube clipped by the arena's far faces runs out of helpers, the
// error wraps ErrBoundaryCube. The cell and plan buffers come from a pooled
// workspace, so a warm call allocates only the Schedule and its Plans.
func (d *Dense) BuildSchedule(char CubeChar) (*Schedule, error) {
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	return d.buildSchedule(char, ws)
}

// buildSchedule is BuildSchedule with ws's cell and plan buffers.
func (d *Dense) buildSchedule(char CubeChar, ws *workspace) (*Schedule, error) {
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
	budget := max(int64(math.Ceil(float64(pow(3, l))*char.Omega)), 1)
	// Tile 0 is the largest: no far face clips it more than any other.
	first, _ := arena.Tile(s, 0)
	vol := first.Volume()
	ws.cells = zeroed(ws.cells, vol)[:0]
	ws.plans = zeroed(ws.plans, vol)
	b := cubeBuilder{
		d:      d,
		sched:  &Schedule{Plans: make([]VehiclePlan, 0, d.planBound(budget)), CubeSide: s, OmegaC: char.Omega},
		budget: budget,
		cells:  ws.cells,
		plans:  ws.plans,
	}
	// Visit the arena's side-s tiles that meet the demand's bounding box in
	// row-major order of their low corners, each clipped at the arena's far
	// faces. A tile that misses it has no demand and so no plans.
	tiles := arena.TilesMeeting(s, d.ps.Window())
	ix := grid.NewBoxIndex(tiles)
	for k := range tiles.Volume() {
		if err := b.build(arena.TileAt(s, ix.PointAt(k))); err != nil {
			return nil, err
		}
	}
	return b.sched, nil
}

// planBound bounds the plans of a schedule with per-vehicle budget B:
// every plan serves at its own cell or is one helper move, so cell x
// accounts for at most ceil(d(x)/B) plans, and no vehicle plans twice, so
// there are at most as many plans as cells.
func (d *Dense) planBound(budget int64) int64 {
	n, cells := int64(0), d.arena.Len()
	for _, v := range d.m.All() {
		if n += (v-1)/budget + 1; n >= cells {
			return cells
		}
	}
	return n
}

// ErrBoundaryCube reports that a cube clipped by the arena's far faces has
// too few vehicles for its demand. Lemma 2.2.5 counts helpers in full
// cubes, so a finite arena can break its construction there.
var ErrBoundaryCube = errors.New("offline: a boundary cube clipped by the arena has too few vehicles")

// cubeBuilder runs Lemma 2.2.5's two phases cube by cube, reusing one buffer
// of cells and one plan slot per cell, both sized for the largest tile,
// across the cubes of a schedule. Phase 1 writes every slot of a cube
// before phase 2 reads any, so slots left by another cube or another
// schedule are never read.
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
	plans := b.plans[:len(b.cells)]
	// Phase 1: serve at home.
	anyDemand := false
	for k, p := range b.cells {
		dp := b.d.At(p)
		anyDemand = anyDemand || dp > 0
		plans[k] = VehiclePlan{Home: p, ServeHome: min(dp, b.budget)}
	}
	if !anyDemand {
		return nil
	}
	// Phase 2: helpers. Iterate cells deterministically; a helper is any
	// vehicle not yet assigned a move. Each helper serves up to the budget
	// at one leftover position.
	helper := 0
	for k, x := range b.cells {
		for rest := b.d.At(x) - plans[k].ServeHome; rest > 0; helper++ {
			for helper < len(plans) && plans[helper].Moved {
				helper++
			}
			if helper == len(plans) {
				if !full {
					return fmt.Errorf("offline: cube %v..%v ran out of helpers (leftover %d at %v): %w",
						cube.Lo, cube.Hi, rest, x, ErrBoundaryCube)
				}
				return fmt.Errorf("offline: cube %v..%v ran out of helpers (omega too small: leftover %d at %v)",
					cube.Lo, cube.Hi, rest, x)
			}
			pl := &plans[helper]
			pl.Moved, pl.Dest, pl.ServeDest = true, x, min(rest, b.budget)
			rest -= pl.ServeDest
		}
	}
	for _, pl := range plans {
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
//
// It checks on dense arrays over the smallest box holding the demand's
// support and every plan's home and, for a vehicle that moves, its
// destination: the jobs each cell still needs, counted down from the demand
// and saturating at math.MinInt64 so that no sum wraps, and a bitset of the
// homes seen. A plan point off the demand's lattice, or a box of more than
// grid.MaxCells cells, is an error. A cell served other than its demand is
// reported at the least such cell in row-major order (Point.Compare order).
// The arrays come from a pooled workspace, cleared first, so a warm call
// allocates nothing but an error.
func VerifySchedule(m *demand.Map, sched *Schedule, capacity float64) (float64, error) {
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	return ws.verify(m, sched, capacity)
}

// verify is VerifySchedule on ws's need array and home bitset. It reads the
// demand from m alone, never from a table a solver built.
func (ws *workspace) verify(m *demand.Map, sched *Schedule, capacity float64) (float64, error) {
	if len(sched.Plans) == 0 && m.Total() == 0 {
		return 0, nil
	}
	box, err := scheduleBox(m, sched.Plans)
	if err != nil {
		return 0, err
	}
	vol, err := box.VolumeChecked()
	if err != nil || vol > grid.MaxCells {
		return 0, fmt.Errorf("offline: schedule spans %v..%v, more than %d cells: %w",
			box.Lo, box.Hi, grid.MaxCells, grid.ErrOverflow)
	}
	ix := grid.NewBoxIndex(box)
	ws.need = zeroed(ws.need, vol)
	ws.homes = zeroed(ws.homes, (vol+63)/64)
	need, homes := ws.need, ws.homes
	for p, v := range m.All() {
		need[ix.Offset(p)] = v
	}
	maxE := 0.0
	for i, pl := range sched.Plans {
		h := ix.Offset(pl.Home)
		if homes[h/64]&(1<<(h%64)) != 0 {
			return 0, fmt.Errorf("offline: vehicle at %v appears twice (plan %d)", pl.Home, i)
		}
		homes[h/64] |= 1 << (h % 64)
		if pl.ServeHome < 0 || pl.ServeDest < 0 {
			return 0, fmt.Errorf("offline: negative service in plan %d", i)
		}
		need[h] = countDown(need[h], pl.ServeHome)
		if pl.Moved {
			o := ix.Offset(pl.Dest)
			need[o] = countDown(need[o], pl.ServeDest)
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
	for o, left := range need {
		if left == 0 {
			continue
		}
		p := ix.PointAt(int64(o))
		d := m.At(p)
		switch {
		case left > 0:
			return 0, fmt.Errorf("offline: position %v served %d of %d jobs", p, d-left, d)
		case left < d-math.MaxInt64: // d - left, the jobs served, passes MaxInt64
			return 0, fmt.Errorf("offline: position %v over-served (more than %d > %d)", p, int64(math.MaxInt64), d)
		default:
			return 0, fmt.Errorf("offline: position %v over-served (%d > %d)", p, d-left, d)
		}
	}
	return maxE, nil
}

// countDown returns need - served, saturating at math.MinInt64. served is
// non-negative, so only a negative need can pass the floor.
func countDown(need, served int64) int64 {
	if need < 0 && served > need-math.MinInt64 {
		return math.MinInt64
	}
	return need - served
}

// scheduleBox returns the smallest box holding m's support and every plan's
// home and, for a plan that moves, its destination. A point with a nonzero
// coordinate at an axis >= m's dimension is an error.
func scheduleBox(m *demand.Map, plans []VehiclePlan) (grid.Box, error) {
	dim := m.Dim()
	if dim < 1 || dim > grid.MaxDim {
		return grid.Box{}, fmt.Errorf("offline: demand dimension %d out of range [1,%d]", dim, grid.MaxDim)
	}
	box, found := m.BoundingBox()
	include := func(p grid.Point) error {
		for a := dim; a < grid.MaxDim; a++ {
			if p[a] != 0 {
				return fmt.Errorf("offline: plan point %v off the %d-D lattice", p, dim)
			}
		}
		if !found {
			box, found = grid.Box{Lo: p, Hi: p, Dim: dim}, true
		}
		for a := 0; a < dim; a++ {
			box.Lo[a], box.Hi[a] = min(box.Lo[a], p[a]), max(box.Hi[a], p[a])
		}
		return nil
	}
	for _, pl := range plans {
		if err := include(pl.Home); err != nil {
			return grid.Box{}, err
		}
		if pl.Moved {
			if err := include(pl.Dest); err != nil {
				return grid.Box{}, err
			}
		}
	}
	return box, nil
}
