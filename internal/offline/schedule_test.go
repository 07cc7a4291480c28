package offline

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/demand"
	"repro/internal/grid"
)

// BuildSchedule is the whole Lemma 2.2.5 pipeline on a fresh dense view:
// densify, characterize, construct. Production code runs the same steps on
// one Dense it keeps (cmvrp.SolveOffline, E12); the tests use this as the
// standalone path.
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

// TestBuildScheduleAllocs guards the construction's allocation count: a
// warm BuildSchedule allocates only the Schedule and its Plans, sized once
// from the demand's pairs, whatever the arena; the cell buffer and the plan
// slots, sized for the largest tile, come from the pooled workspace.
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
		allocs, _ := leastAllocs(func() {
			if _, err := d.BuildSchedule(char); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%dx%d: %d allocations", n, n, allocs)
		if allocs != 2 {
			t.Errorf("%dx%d: a warm BuildSchedule made %d allocations, want 2", n, n, allocs)
		}
	}
}

// solveOK runs Solve on m over arena and fails t on an error.
func solveOK(t testing.TB, m *demand.Map, arena *grid.Grid) {
	if _, err := Solve(m, arena); err != nil {
		t.Fatal(err)
	}
}

// leastAllocs returns the fewest allocations and bytes one call of f made
// over ten calls, read from runtime.MemStats: a garbage collection that
// starts during a call allocates in the runtime, and those count too, and
// -race makes sync.Pool drop items, so a call can miss the pooled
// workspace.
func leastAllocs(f func()) (allocs, bytes uint64) {
	allocs, bytes = math.MaxUint64, math.MaxUint64
	for range 10 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return allocs, bytes
}

// TestOfflinePipelineAllocs guards the offline pipeline's allocation counts
// on uniform demand at 32x32, 64x64 and 128x128. A warm Solve allocates
// exactly its answer, the Schedule and its Plans. NewDense, which E6, E11
// and the bench's traced path keep, allocates exactly the Dense and its
// table. A solve on a fresh workspace, which sizes every scratch buffer
// too, allocates 8 times in every arena: the workspace, the table, the cell
// and plan buffers, the answer's 2, and the need array and home bitset.
// Each count is the least of ten single runs.
func TestOfflinePipelineAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{32, 64, 128} {
		arena := grid.MustNew(n, n)
		m, err := demand.Uniform(rng, arena.Bounds(), 4*arena.Len())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			what string
			run  func()
			want uint64
		}{
			{"a warm Solve", func() { solveOK(t, m, arena) }, 2},
			{"NewDense", func() { newDenseOK(t, m, arena) }, 2},
			{"a solve on a fresh workspace", func() { coldSolveOK(t, m, arena) }, 8},
		} {
			allocs, _ := leastAllocs(c.run)
			t.Logf("%dx%d: %s made %d allocations", n, n, c.what, allocs)
			if allocs != c.want {
				t.Errorf("%dx%d: %s made %d allocations, want %d", n, n, c.what, allocs, c.want)
			}
		}
	}
}

// denseSink keeps the table newDenseOK builds, as a caller that uses it
// does: a result the compiler sees dropped could live on the stack.
var denseSink *Dense

// newDenseOK runs NewDense on m over arena and fails t on an error.
func newDenseOK(t testing.TB, m *demand.Map, arena *grid.Grid) {
	var err error
	if denseSink, err = NewDense(m, arena); err != nil {
		t.Fatal(err)
	}
}

// coldSolveOK solves m over arena on a fresh workspace, so every scratch
// buffer is sized anew, and fails t on an error.
func coldSolveOK(t testing.TB, m *demand.Map, arena *grid.Grid) {
	if _, err := new(workspace).solve(m, arena); err != nil {
		t.Fatal(err)
	}
}

// TestOfflinePipelineAllocsFollowDemand pins that the offline pipeline
// allocates by the demand, not the arena: one 16x16 demand box pays the
// same bytes in a 64x64 arena and in a 1024x1024 one, where an arena-wide
// value array alone would take 8 MB. The bytes are counted on a fresh
// workspace, whose every scratch buffer a warm Solve would reuse unseen,
// on NewDense and on a warm Solve. Each count is the least of ten single
// runs.
func TestOfflinePipelineAllocsFollowDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	inner, err := grid.NewBox(2, grid.P(24, 24), grid.P(39, 39))
	if err != nil {
		t.Fatal(err)
	}
	m, err := demand.Clusters(rng, inner, 3, 300, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		run  func(*grid.Grid)
	}{
		{"a solve on a fresh workspace", func(arena *grid.Grid) { coldSolveOK(t, m, arena) }},
		{"NewDense", func(arena *grid.Grid) { newDenseOK(t, m, arena) }},
		{"a warm Solve", func(arena *grid.Grid) { solveOK(t, m, arena) }},
	} {
		var bytes []uint64
		for _, n := range []int{64, 1024} {
			arena := grid.MustNew(n, n)
			_, b := leastAllocs(func() { c.run(arena) })
			t.Logf("%s, %dx%d: %d bytes", c.what, n, n, b)
			bytes = append(bytes, b)
		}
		if bytes[0] != bytes[1] {
			t.Errorf("%s allocated %d bytes in a 64x64 arena and %d in a 1024x1024 one", c.what, bytes[0], bytes[1])
		}
	}
}

// mapVerifySchedule is VerifySchedule as it stood before the dense
// verifier: served jobs and homes keyed by grid.Point in two maps, kept
// unchanged as FuzzVerifySchedule's oracle. Its sums can wrap, and its
// over-served error names whichever cell map iteration meets first.
func mapVerifySchedule(m *demand.Map, sched *Schedule, capacity float64) (float64, error) {
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

// TestVerifyScheduleRegressions pins two faults of the map-keyed verifier,
// each on one job of demand at (0,0) that the vehicle there serves. Three
// helpers serving MaxInt64, MaxInt64 and 2 jobs at (5,5), where nobody
// needs any, summed to 2^64, which wrapped to 0, so the schedule passed.
// Three vehicles serving 1 job each at their own cells (1,0), (2,0) and
// (3,0) were reported at whichever cell map iteration met first.
func TestVerifyScheduleRegressions(t *testing.T) {
	m, err := demand.PointMass(2, grid.P(0, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	home := VehiclePlan{Home: grid.P(0, 0), ServeHome: 1}
	helper := func(x int, n int64) VehiclePlan {
		return VehiclePlan{Home: grid.P(x, 0), Moved: true, Dest: grid.P(5, 5), ServeDest: n}
	}
	for _, tc := range []struct {
		name     string
		plans    []VehiclePlan
		capacity float64
		want     string
	}{
		{"helper services wrapping to 0 at a cell without demand",
			[]VehiclePlan{home, helper(1, math.MaxInt64), helper(2, math.MaxInt64), helper(3, 2)}, 1e19,
			"offline: position (5,5) over-served (more than 9223372036854775807 > 0)"},
		{"three over-served cells",
			[]VehiclePlan{home, {Home: grid.P(3, 0), ServeHome: 1}, {Home: grid.P(1, 0), ServeHome: 1}, {Home: grid.P(2, 0), ServeHome: 1}}, 1,
			"offline: position (1,0) over-served (1 > 0)"},
	} {
		for range 200 {
			if _, err := VerifySchedule(m, &Schedule{Plans: tc.plans}, tc.capacity); err == nil || err.Error() != tc.want {
				t.Fatalf("%s: VerifySchedule = %v, want %q", tc.name, err, tc.want)
			}
		}
	}
}

// TestVerifyScheduleRejectsUnindexable pins the verifier's refusals of what
// it cannot index: a plan point off the demand's lattice, and a box of more
// than grid.MaxCells cells, which it must refuse before allocating it.
func TestVerifyScheduleRejectsUnindexable(t *testing.T) {
	m, err := demand.PointMass(2, grid.P(0, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		plan VehiclePlan
	}{
		{"home off the 2-D lattice", VehiclePlan{Home: grid.P(0, 0, 1), ServeHome: 1}},
		{"destination off the 2-D lattice", VehiclePlan{Home: grid.P(0, 0), Moved: true, Dest: grid.P(0, 0, 0, 1), ServeDest: 1}},
		{"a box just over 2^31 cells", VehiclePlan{Home: grid.P(0, 0), Moved: true, Dest: grid.P(1<<15, 1<<16), ServeDest: 1}},
	} {
		_, err := VerifySchedule(m, &Schedule{Plans: []VehiclePlan{tc.plan}}, math.Inf(1))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	far := &Schedule{Plans: []VehiclePlan{{Home: grid.P(0, 0), Moved: true, Dest: grid.P(math.MaxInt32, math.MaxInt32), ServeDest: 1}}}
	if _, err := VerifySchedule(m, far, math.Inf(1)); !errors.Is(err, grid.ErrOverflow) {
		t.Errorf("a box of 2^62 cells: %v, want grid.ErrOverflow", err)
	}
}

// fuzzSchedule builds one of the three schedule kinds from a seed: a
// Lemma 2.2.5 schedule on a 1-3-D arena with sides 1-8 and up to 12 demand
// points, the Figure 2.2 line strategy, or the Figure 2.3 point strategy,
// each near the origin so that a tampered point keeps the box small.
func fuzzSchedule(kind uint8, seed int64) (*demand.Map, *Schedule, error) {
	rng := rand.New(rand.NewSource(seed))
	switch kind % 3 {
	case 0:
		sizes := make([]int, 1+rng.Intn(3))
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(8)
		}
		arena := grid.MustNew(sizes...)
		m := demand.NewMap(len(sizes))
		for n := rng.Intn(13); n > 0; n-- {
			if err := m.Add(arena.PointAt(rng.Int63n(arena.Len())), rng.Int63n(1+rng.Int63n(200))); err != nil {
				return nil, nil, err
			}
		}
		sched, err := BuildSchedule(m, arena)
		return m, sched, err
	case 1:
		sched, m, err := LineStrategy(grid.P(rng.Intn(9)-4, rng.Intn(9)-4), 1+rng.Intn(8), rng.Int63n(300))
		return m, sched, err
	default:
		sched, m, err := PointStrategy(grid.P(rng.Intn(9)-4, rng.Intn(9)-4), rng.Int63n(2000))
		return m, sched, err
	}
}

// FuzzVerifySchedule compares VerifySchedule with the map-keyed verifier it
// replaced on schedules from BuildSchedule, LineStrategy and PointStrategy,
// each with at most one field tampered: plan which%len's home or
// destination moved by (dx, dy), a service raised or lowered by 1, Moved
// flipped, the plan duplicated, or the capacity lowered by 1. Both must
// accept and reject alike, and agree on the maximum energy when they
// accept. No tamper can make a cell's served jobs pass MaxInt64, the one
// case where the oracle's sum wraps.
func FuzzVerifySchedule(f *testing.F) {
	for tamper := range uint8(8) {
		for kind := range uint8(3) {
			f.Add(kind, int64(tamper), tamper, uint16(tamper*7), int8(tamper)-3, int8(2))
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, seed int64, tamper uint8, which uint16, dx, dy int8) {
		m, sched, err := fuzzSchedule(kind, seed)
		if err != nil {
			return
		}
		capacity := sched.W
		sign := int64(1)
		if dx < 0 {
			sign = -1
		}
		move := func(p grid.Point) grid.Point {
			p[0] += int32(dx)
			if m.Dim() > 1 {
				p[1] += int32(dy)
			}
			return p
		}
		if n := len(sched.Plans); n > 0 {
			pl := &sched.Plans[int(which)%n]
			switch tamper % 8 {
			case 1:
				pl.Home = move(pl.Home)
			case 2:
				pl.Dest = move(pl.Dest)
			case 3:
				pl.ServeHome += sign
			case 4:
				pl.ServeDest += sign
			case 5:
				pl.Moved = !pl.Moved
			case 6:
				sched.Plans = append(sched.Plans, *pl)
			}
		}
		if tamper%8 == 7 {
			capacity--
		}
		got, gotErr := VerifySchedule(m, sched, capacity)
		want, wantErr := mapVerifySchedule(m, sched, capacity)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("VerifySchedule error %v, map-keyed verifier %v", gotErr, wantErr)
		}
		if got != want {
			t.Fatalf("VerifySchedule max energy %v, map-keyed verifier %v", got, want)
		}
	})
}
