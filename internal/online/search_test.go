package online

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/demand"
	"repro/internal/grid"
)

func hotPointSeq(n int) (*grid.Grid, *demand.Sequence) {
	arena := grid.MustNew(8, 8)
	jobs := make([]grid.Point, n)
	for i := range jobs {
		jobs[i] = grid.P(4, 4)
	}
	return arena, demand.NewSequence(jobs)
}

// TestMinCapacityParallelMatchesSerial checks that the parallel search lands
// within tolerance of the serial answer, across worker counts (including the
// fallback paths), and is deterministic for a fixed worker count. Run with
// -race this also exercises the worker pool for data races.
func TestMinCapacityParallelMatchesSerial(t *testing.T) {
	arena, seq := hotPointSeq(60)
	base := Options{Arena: arena, CubeSide: 8, Seed: 1}
	const tol = 0.05
	serial, err := MinCapacity(seq, base, 1, tol)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 4, 7} {
		opts := base
		opts.SearchWorkers = workers
		got, err := MinCapacityParallel(seq, opts, 1, tol)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// Both answers are feasible points within relative tol of the
		// infeasibility boundary, so they agree up to 2*tol.
		if math.Abs(got-serial) > 2*tol*math.Max(1, serial) {
			t.Errorf("workers=%d: parallel Won %v vs serial %v", workers, got, serial)
		}
		again, err := MinCapacityParallel(seq, opts, 1, tol)
		if err != nil {
			t.Fatal(err)
		}
		if got != again {
			t.Errorf("workers=%d: nondeterministic answer %v vs %v", workers, got, again)
		}
	}
}

// TestMinCapacityParallelLoFeasible covers the bracket's k=0 short-circuit:
// when the starting capacity already serves everything, lo itself comes
// back, as in the serial search.
func TestMinCapacityParallelLoFeasible(t *testing.T) {
	arena := grid.MustNew(4, 4)
	seq := demand.NewSequence([]grid.Point{grid.P(0, 0), grid.P(3, 3)})
	base := Options{Arena: arena, CubeSide: 2, Seed: 3, SearchWorkers: 4}
	got, err := MinCapacityParallel(seq, base, 50, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		t.Errorf("feasible lo should come back unchanged, got %v", got)
	}
}

// TestMinCapacityParallelInfeasible checks the 1e12 cap error path with a
// demand no capacity can serve: the only vehicle on a 1-cell arena is dead
// before the first arrival and monitoring is off, so every probe fails.
func TestMinCapacityParallelInfeasible(t *testing.T) {
	arena := grid.MustNew(1, 1)
	jobs := []grid.Point{grid.P(0)}
	_, err := MinCapacityParallel(demand.NewSequence(jobs), Options{
		Arena: arena, CubeSide: 1, Seed: 1, SearchWorkers: 4,
		Failure: &FailureModel{DeadBeforeArrival: map[grid.Point]int{grid.P(0): 0}},
	}, 1, 0.05)
	if err == nil {
		t.Fatal("a permanently dead fleet must report infeasibility")
	}
}

// TestCapacitySearchRejectsBadBounds pins that both searches return an error
// for a non-finite start capacity or a tolerance the bisection cannot meet.
// They used to return NaN for lo = NaN, the top of the bracket for
// tol = NaN, and to bisect forever at tol <= 0 once the bracket was two
// adjacent floats. Each call runs under a deadline, so a regression fails
// instead of hanging the suite.
func TestCapacitySearchRejectsBadBounds(t *testing.T) {
	arena, seq := hotPointSeq(20)
	for _, tc := range []struct {
		name    string
		lo, tol float64
	}{
		{"lo NaN", math.NaN(), 0.05},
		{"lo +Inf", math.Inf(1), 0.05},
		{"lo -Inf", math.Inf(-1), 0.05},
		{"tol NaN", 1, math.NaN()},
		{"tol +Inf", 1, math.Inf(1)},
		{"tol 0", 1, 0},
		{"tol -1", 1, -1},
		{"tol below float spacing", 1, 1e-300},
	} {
		for _, workers := range []int{1, 2} {
			opts := Options{Arena: arena, CubeSide: 8, Seed: 1, SearchWorkers: workers}
			search := MinCapacity
			if workers > 1 {
				search = MinCapacityParallel
			}
			type answer struct {
				won float64
				err error
			}
			done := make(chan answer, 1)
			go func() {
				won, err := search(seq, opts, tc.lo, tc.tol)
				done <- answer{won, err}
			}()
			select {
			case a := <-done:
				if a.err == nil {
					t.Errorf("%s, workers %d: returned %v with no error", tc.name, workers, a.won)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s, workers %d: search still running after 5s", tc.name, workers)
			}
		}
	}
}

// doubleProbeSearch is the serial search loop as it stood before it stopped
// probing lo a second time after the bracket: the reference answer for
// bracketBisect.
func doubleProbeSearch(feasible func(float64) (bool, error), lo, tol float64) (float64, error) {
	hi := lo
	for {
		ok, err := feasible(hi)
		if err != nil {
			return 0, err
		}
		if ok {
			break
		}
		hi *= 2
		if hi > maxSearchCapacity {
			return 0, errors.New("online: no feasible capacity below 1e12")
		}
	}
	if okLo, err := feasible(lo); err != nil {
		return 0, err
	} else if okLo {
		return lo, nil
	}
	for hi-lo > tol*math.Max(1, hi) {
		mid := (lo + hi) / 2
		ok, err := feasible(mid)
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

// TestBracketBisectProbesOnce drives the serial search with threshold
// oracles over random starts, tolerances and thresholds — including
// thresholds at lo, at a bracket point and beyond the 1e12 cap. No capacity
// may be probed twice, and the answer (or error) must equal the reference
// loop's.
func TestBracketBisectProbesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 2000; trial++ {
		lo := serveCost + rng.ExpFloat64()*50
		tol := math.Pow(10, -1-11*rng.Float64())
		if trial%10 == 0 {
			tol = minSearchTol
		}
		var threshold float64
		switch trial % 5 {
		case 0:
			threshold = lo * rng.Float64() // lo itself is feasible
		case 1:
			threshold = lo * math.Pow(2, float64(rng.Intn(10))) // a bracket point
		case 2:
			threshold = 2 * maxSearchCapacity * (1 + rng.Float64()) // infeasible
		default:
			threshold = lo * math.Pow(2, 12*rng.Float64())
		}
		probes := map[float64]int{}
		oracle := func(w float64) (bool, error) {
			probes[w]++
			return w >= threshold, nil
		}
		got, err := bracketBisect(oracle, lo, tol)
		for w, n := range probes {
			if n > 1 {
				t.Fatalf("lo %v tol %v threshold %v: capacity %v probed %d times", lo, tol, threshold, w, n)
			}
		}
		want, wantErr := doubleProbeSearch(oracle, lo, tol)
		if got != want || (err == nil) != (wantErr == nil) {
			t.Fatalf("lo %v tol %v threshold %v: got %v (%v), reference %v (%v)",
				lo, tol, threshold, got, err, want, wantErr)
		}
	}
}
