package offline

import (
	"fmt"
	"sync"

	"repro/internal/demand"
	"repro/internal/grid"
)

// Solution is the answer of the offline pipeline of Chapter 2.
type Solution struct {
	// Characterized reports that Char holds Corollary 2.2.7's
	// characterization and that Algorithm 1 ran: false only when the
	// demand lies outside the arena or no cube size fits in it.
	Characterized bool
	Char          CubeChar
	// Alg1 is Algorithm 1's estimate, or Alg1Err its error on an arena
	// that is not a power-of-two cube; that error fails nothing else.
	Alg1    Alg1Result
	Alg1Err error
	// Schedule is Lemma 2.2.5's schedule built from Char, verified at its
	// own W; nil whenever Solve returns an error.
	Schedule *Schedule
}

// Solve runs the offline pipeline of Chapter 2 on m over arena: it
// densifies m once, characterizes it (OmegaC), estimates with Algorithm 1,
// builds the schedule from that characterization and verifies it. On an
// error the Solution holds what was computed before it, so a caller can
// report the characterization and the estimate before a schedule that
// failed. Solve runs on a workspace from a package-level pool, so a warm
// call allocates only what it returns.
func Solve(m *demand.Map, arena *grid.Grid) (Solution, error) {
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	return ws.solve(m, arena)
}

// workspace holds the scratch of the offline pipeline, each buffer as
// large as the largest run it has served: the summed-area table's storage
// (in d), the schedule construction's cell and plan buffers, and the
// verifier's need array and home bitset. Between runs it refers to no
// caller's demand map or arena. Reuse is indistinguishable from a fresh
// workspace (TestSolveWarmEqualsCold).
type workspace struct {
	d     Dense
	cells []grid.Point
	plans []VehiclePlan
	need  []int64
	homes []uint64
}

// workspaces recycles workspaces across calls, as lpchar's solverPool
// recycles solvers. Their buffers live until garbage collection empties
// the pool.
var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// solve is Solve on ws.
func (ws *workspace) solve(m *demand.Map, arena *grid.Grid) (Solution, error) {
	defer ws.d.drop()
	d := &ws.d
	if err := d.reset(m, arena); err != nil {
		return Solution{}, err
	}
	char, err := d.OmegaC()
	if err != nil {
		return Solution{}, err
	}
	sol := Solution{Characterized: true, Char: char}
	sol.Alg1, sol.Alg1Err = d.Algorithm1()
	sched, err := d.buildSchedule(char, ws)
	if err != nil {
		return sol, err
	}
	if _, err := ws.verify(m, sched, sched.W); err != nil {
		return sol, fmt.Errorf("offline: schedule failed verification: %w", err)
	}
	sol.Schedule = sched
	return sol, nil
}

// zeroed returns buf resized to n zero entries, on its own storage when it
// holds enough. It allocates exactly n entries otherwise, where slices.Grow
// would round up and, built with -race, allocate twice.
func zeroed[T any](buf []T, n int64) []T {
	if int64(cap(buf)) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
