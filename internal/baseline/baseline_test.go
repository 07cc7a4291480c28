package baseline

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/demand"
	"repro/internal/grid"
)

func TestGreedyValidation(t *testing.T) {
	seq := demand.NewSequence([]grid.Point{grid.P(0, 0)})
	if _, err := Greedy(seq, nil, 5); err == nil {
		t.Error("nil arena should fail")
	}
	// NaN and +Inf would serve every job with unlimited energy.
	for _, capacity := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Greedy(seq, grid.MustNew(2, 2), capacity); err == nil {
			t.Errorf("capacity %v should fail", capacity)
		}
	}
	out := demand.NewSequence([]grid.Point{grid.P(9, 9)})
	if _, err := Greedy(out, grid.MustNew(2, 2), 5); err == nil {
		t.Error("out-of-arena arrival should fail")
	}
}

func TestGreedyServesLocalJobFirst(t *testing.T) {
	arena := grid.MustNew(3, 3)
	seq := demand.NewSequence([]grid.Point{grid.P(1, 1)})
	res, err := Greedy(seq, arena, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || res.MaxEnergy != 1 {
		t.Fatalf("result %+v", res)
	}
}

func TestGreedyExhaustsAndRecruitsNeighbors(t *testing.T) {
	arena := grid.MustNew(3, 3)
	jobs := make([]grid.Point, 12)
	for i := range jobs {
		jobs[i] = grid.P(1, 1)
	}
	res, err := Greedy(demand.NewSequence(jobs), arena, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Center vehicle serves 4 (energy 4), then 4 neighbors at distance 1
	// serve 2 more each at cost 2 (walk 1 + serve 1, then serve 1 more each
	// after relocating)... capacity 4 allows walk+3 serves.
	if !res.OK() {
		t.Fatalf("failed %d of 12", res.Failed)
	}
	if res.MaxEnergy > 4 {
		t.Errorf("max energy %v exceeds capacity", res.MaxEnergy)
	}
}

func TestGreedyReportsFailures(t *testing.T) {
	arena := grid.MustNew(2, 2)
	jobs := make([]grid.Point, 100)
	for i := range jobs {
		jobs[i] = grid.P(0, 0)
	}
	res, err := Greedy(demand.NewSequence(jobs), arena, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("100 jobs cannot fit in 4 vehicles x capacity 3")
	}
	if res.Served == 0 {
		t.Error("some jobs should be served")
	}
	if res.Served+res.Failed != 100 {
		t.Error("served + failed must equal arrivals")
	}
}

func TestGreedyMinCapacityPointDemand(t *testing.T) {
	// Point demand d on an n x n arena: greedy's requirement should be
	// within a constant of the omega ~ (d/2)^(1/3) scale.
	arena := grid.MustNew(17, 17)
	jobs := make([]grid.Point, 200)
	for i := range jobs {
		jobs[i] = grid.P(8, 8)
	}
	w, err := GreedyMinCapacity(demand.NewSequence(jobs), arena, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	scale := math.Cbrt(200.0 / 2)
	if w < scale/2 || w > scale*8 {
		t.Errorf("greedy min capacity %v, omega scale %v", w, scale)
	}
}

func TestGreedyDeterminism(t *testing.T) {
	arena := grid.MustNew(6, 6)
	rng := rand.New(rand.NewSource(5))
	b, err := grid.NewBox(2, grid.P(0, 0), grid.P(5, 5))
	if err != nil {
		t.Fatal(err)
	}
	m, err := demand.Uniform(rng, b, 80)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := demand.SequenceOf(m, demand.OrderShuffled, rng)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Greedy(seq, arena, 9)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Greedy(seq, arena, 9)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b2 {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b2)
	}
}

// TestGreedyMinCapacityTolerance pins the tolerance bounds: below 2^-52 the
// bisection can never meet tol and would run forever, and a NaN tol would
// skip it. Each search runs with a deadline so a hang fails the test.
func TestGreedyMinCapacityTolerance(t *testing.T) {
	arena := grid.MustNew(3, 3)
	jobs := make([]grid.Point, 12)
	for i := range jobs {
		jobs[i] = grid.P(1, 1)
	}
	seq := demand.NewSequence(jobs)
	for _, tc := range []struct {
		tol float64
		ok  bool
	}{
		{0.05, true},
		{0x1p-52, true},
		{0x1p-53, false},
		{0, false},
		{-1, false},
		{math.NaN(), false},
		{math.Inf(1), false},
	} {
		done := make(chan error, 1)
		go func() {
			_, err := GreedyMinCapacity(seq, arena, tc.tol)
			done <- err
		}()
		select {
		case err := <-done:
			if (err == nil) != tc.ok {
				t.Errorf("tol %v: err = %v, want ok=%v", tc.tol, err, tc.ok)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("tol %v: search still running after 5s", tc.tol)
		}
	}
}

// randomGreedyInstance draws a small 1-2-D arena and a sequence whose
// arrivals mostly hit one to three hot cells.
func randomGreedyInstance(rng *rand.Rand) (*grid.Grid, *demand.Sequence) {
	var arena *grid.Grid
	if rng.Intn(2) == 0 {
		arena = grid.MustNew(2 + rng.Intn(14))
	} else {
		arena = grid.MustNew(2+rng.Intn(7), 2+rng.Intn(7))
	}
	cell := func() grid.Point { return arena.PointAt(rng.Int63n(arena.Len())) }
	hot := []grid.Point{cell(), cell(), cell()}[:1+rng.Intn(3)]
	jobs := make([]grid.Point, 5+rng.Intn(120))
	for i := range jobs {
		jobs[i] = hot[rng.Intn(len(hot))]
		if rng.Intn(3) == 0 {
			jobs[i] = cell()
		}
	}
	return arena, demand.NewSequence(jobs)
}

// TestGreedyMinCapacityMatchesFullRuns pins that stopping infeasible greedy
// probes at their first unserved job changes no answer: on random instances
// each probe's verdict equals a full Greedy run's, and GreedyMinCapacity
// equals the search whose probes are full Greedy runs with ==.
func TestGreedyMinCapacityMatchesFullRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var infeasible, early int
	for trial := 0; trial < 300; trial++ {
		arena, seq := randomGreedyInstance(rng)
		tol := 0.005 + 0.1*rng.Float64()
		vehicles := make([]vehicle, arena.Len())
		want, wantErr := grid.Least(func(w float64) (bool, error) {
			full, err := Greedy(seq, arena, w)
			if err != nil {
				return false, err
			}
			stopped, err := greedy(seq, arena, w, vehicles, true)
			if err != nil {
				t.Fatalf("trial %d, capacity %v: stopped probe failed: %v", trial, w, err)
			}
			if stopped.OK() != full.OK() {
				t.Fatalf("trial %d, capacity %v: stopped probe %+v, full run %+v", trial, w, stopped, *full)
			}
			if !full.OK() {
				infeasible++
				if stopped.Served+stopped.Failed < int64(seq.Len()) {
					early++
				}
			}
			return full.OK(), nil
		}, 1, 2, tol)
		got, err := GreedyMinCapacity(seq, arena, tol)
		if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("trial %d: GreedyMinCapacity %v (%v), full-run search %v (%v)", trial, got, err, want, wantErr)
		}
	}
	if early == 0 {
		t.Fatalf("none of %d infeasible probes stopped before the last arrival", infeasible)
	}
}

// TestGreedyMinCapacityAllocs guards that a greedy capacity search sizes
// one vehicle buffer and reuses it for every probe: at most 2 allocations
// per search, whatever the probe count, on E7-style shuffled cluster demand.
func TestGreedyMinCapacityAllocs(t *testing.T) {
	const ceiling = 2
	for _, n := range []int{8, 16} {
		arena := grid.MustNew(n, n)
		rng := rand.New(rand.NewSource(13))
		box, err := grid.NewBox(2, grid.P(n/4, n/4), grid.P(3*n/4-1, 3*n/4-1))
		if err != nil {
			t.Fatal(err)
		}
		m, err := demand.Clusters(rng, box, 3, int64(n*n)/3, 1)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := demand.SequenceOf(m, demand.OrderShuffled, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, tol := range []float64{0.05, 1e-9} {
			got := testing.AllocsPerRun(3, func() {
				if _, err := GreedyMinCapacity(seq, arena, tol); err != nil {
					t.Fatal(err)
				}
			})
			if got > ceiling {
				t.Errorf("%dx%d, tol %v: GreedyMinCapacity allocated %.0f objects, ceiling %d", n, n, tol, got, ceiling)
			}
		}
	}
}
