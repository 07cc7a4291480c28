package offline

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/demand"
	"repro/internal/grid"
)

// solveInput draws one instance for TestSolveWarmEqualsCold: a 1-4-D arena,
// square with a power-of-two side (up to 64 in 1-D, halving per dimension)
// in one input of two and otherwise with sides 1 to 12-2·dim, and 0-399
// jobs of uniform, clustered, Zipf or point demand in a random box of it,
// so that the demand's bounding box grows and shrinks from one input to
// the next.
func solveInput(rng *rand.Rand) (*demand.Map, *grid.Grid) {
	dim := 1 + rng.Intn(grid.MaxDim)
	sizes := make([]int, dim)
	pow2 := rng.Intn(2) == 0
	side := 1 << rng.Intn(8-dim)
	for i := range sizes {
		if pow2 {
			sizes[i] = side
		} else {
			sizes[i] = 1 + rng.Intn(12-2*dim)
		}
	}
	arena := grid.MustNew(sizes...)
	box := grid.Box{Dim: dim}
	for i, n := range sizes {
		a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
		box.Lo[i], box.Hi[i] = min(a, b), max(a, b)
	}
	jobs := rng.Int63n(400)
	var m *demand.Map
	var err error
	switch rng.Intn(4) {
	case 0:
		m, err = demand.Uniform(rng, box, jobs)
	case 1:
		m, err = demand.Clusters(rng, box, 1+rng.Intn(3), jobs/3, rng.Intn(4))
	case 2:
		m, err = demand.Zipf(rng, box, jobs, 1.1+rng.Float64())
	default:
		m, err = demand.PointMass(dim, box.Lo, jobs)
	}
	if err != nil {
		panic(err)
	}
	return m, arena
}

// base returns the address of buf's backing array, or nil when it has none.
func base[T any](buf []T) *T {
	if cap(buf) == 0 {
		return nil
	}
	return &buf[:1][0]
}

// TestSolveWarmEqualsCold runs 300 random instances (solveInput) on one
// retained workspace, and every 25th input in turn the three failures:
// 13 jobs on the last of 4 cells (ErrBoundaryCube), a job outside the arena
// and one cell of 1,000 jobs in a 2-cell arena (no feasible cube size).
// Each answer, errors included, must deep-equal a solve on a fresh
// workspace, after each call the workspace must refer to no demand map and
// no arena, and the pooled OmegaC must give the solve's characterization.
// The retained buffers must be reused: most solves that build a schedule
// keep the plan slots and need array they found.
func TestSolveWarmEqualsCold(t *testing.T) {
	boundary := demand.NewMap(1)
	outside := demand.NewMap(2)
	crowded := demand.NewMap(1)
	for _, err := range []error{boundary.Add(grid.P(3), 13), outside.Add(grid.P(1, 7), 2), crowded.Add(grid.P(0), 1000)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	special := []struct {
		m     *demand.Map
		arena *grid.Grid
	}{{boundary, grid.MustNew(4)}, {outside, grid.MustNew(4, 4)}, {crowded, grid.MustNew(2)}}

	rng := rand.New(rand.NewSource(36))
	var ws workspace
	var built, reusedPlans, reusedNeed, failed int
	for trial := range 300 {
		m, arena := solveInput(rng)
		if trial%25 < len(special) {
			m, arena = special[trial%25].m, special[trial%25].arena
		}
		plans, need := base(ws.plans), base(ws.need)
		got, gotErr := ws.solve(m, arena)
		want, wantErr := new(workspace).solve(m, arena)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("trial %d: warm %+v, %v; cold %+v, %v", trial, got, gotErr, want, wantErr)
		}
		if ws.d.m != nil || ws.d.arena != nil || ws.d.ps.Grid() != nil {
			t.Fatalf("trial %d: the workspace still refers to the caller's objects", trial)
		}
		if char, err := OmegaC(m, arena); char != want.Char || (err == nil) != want.Characterized {
			t.Fatalf("trial %d: pooled OmegaC %+v, %v; the solve characterized %+v (%v)", trial, char, err, want.Char, want.Characterized)
		}
		if gotErr != nil {
			failed++
			continue
		}
		if len(got.Schedule.Plans) > 0 {
			built++
			if plans != nil && base(ws.plans) == plans {
				reusedPlans++
			}
			if need != nil && base(ws.need) == need {
				reusedNeed++
			}
		}
	}
	t.Logf("%d schedules built, %d reused the plan slots and %d the need array; %d failures", built, reusedPlans, reusedNeed, failed)
	if built < 150 || failed < 3*300/25 {
		t.Errorf("the inputs must exercise both outcomes: %d schedules, %d failures", built, failed)
	}
	if reusedPlans < built*3/4 || reusedNeed < built*3/4 {
		t.Errorf("of %d schedules, only %d reused the plan slots and %d the need array", built, reusedPlans, reusedNeed)
	}
	if _, err := ws.solve(boundary, special[0].arena); !errors.Is(err, ErrBoundaryCube) {
		t.Errorf("boundary input: error %v, want one wrapping ErrBoundaryCube", err)
	}
}
