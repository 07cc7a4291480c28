package offline

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/demand"
	"repro/internal/grid"
)

// referenceSchedule is Dense.BuildSchedule as it stood before the per-cube
// maps gave way to plan slots: the recursive corner walk buildCubes and the
// map-keyed buildOneCube below, kept unchanged as the oracle of
// TestBuildScheduleMatchesReference.
func (d *Dense) referenceSchedule(char CubeChar) (*Schedule, error) {
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
	budget := float64(pow(3, l)) * char.Omega
	sched := &Schedule{CubeSide: s, OmegaC: char.Omega}
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

// TestBuildScheduleMatchesReference pins the slot-based construction to the
// map-keyed one above on random 1-4-D inputs: arena sides 1-9, up to 12
// demand points, and omega and side from OmegaC, perturbed in one input of
// three so that helpers run out or the partition changes. Each input must
// give an identical schedule, plan order included, or fail on both sides.
func TestBuildScheduleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	built, failed := 0, 0
	for trial := 0; trial < 2400; trial++ {
		sizes := make([]int, 1+rng.Intn(grid.MaxDim))
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(9)
		}
		arena := grid.MustNew(sizes...)
		m := demand.NewMap(len(sizes))
		for n := rng.Intn(13); n > 0; n-- {
			p := arena.PointAt(rng.Int63n(arena.Len()))
			if err := m.Add(p, rng.Int63n(1+rng.Int63n(200))); err != nil {
				t.Fatal(err)
			}
		}
		d, err := NewDense(m, arena)
		if err != nil {
			t.Fatal(err)
		}
		char, err := d.OmegaC()
		switch {
		case err != nil:
			char = CubeChar{Omega: 10 * rng.Float64(), Side: rng.Intn(10)}
		case rng.Intn(3) > 0:
		case rng.Intn(2) == 0:
			char.Omega *= 0.2 + 0.8*rng.Float64()
		default:
			char.Side = rng.Intn(11)
		}
		got, gotErr := d.BuildSchedule(char)
		want, wantErr := d.referenceSchedule(char)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("trial %d (arena %v, %+v): error %v, reference %v", trial, sizes, char, gotErr, wantErr)
		}
		if gotErr != nil {
			failed++
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (arena %v, %+v): schedule\n%+v\nreference\n%+v", trial, sizes, char, got, want)
		}
		built++
	}
	t.Logf("%d identical schedules, %d failures on both sides", built, failed)
	if built < 1000 || failed < 200 {
		t.Errorf("the inputs must exercise both outcomes: %d schedules, %d failures", built, failed)
	}
}

// TestBuildScheduleAllocs guards the construction's allocation count: the
// cell buffer and plan slots are allocated once per schedule, so what grows
// with the arena is only the Plans slice's doubling.
func TestBuildScheduleAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{32, 64, 128} {
		arena := grid.MustNew(n, n)
		inner, err := grid.NewBox(2, grid.P(n/4, n/4), grid.P(3*n/4-1, 3*n/4-1))
		if err != nil {
			t.Fatal(err)
		}
		m, err := demand.Uniform(rng, inner, 2*inner.Volume())
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDense(m, arena)
		if err != nil {
			t.Fatal(err)
		}
		char, err := d.OmegaC()
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := d.BuildSchedule(char); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%dx%d: %.0f allocations", n, n, allocs)
		if allocs > 32 {
			t.Errorf("%dx%d: BuildSchedule made %.0f allocations, want at most 32", n, n, allocs)
		}
	}
}
