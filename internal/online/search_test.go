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

// TestMinCapacityLoFeasible covers the bracket's short-circuit: when the
// starting capacity already serves everything, lo itself comes back.
func TestMinCapacityLoFeasible(t *testing.T) {
	arena := grid.MustNew(4, 4)
	seq := demand.NewSequence([]grid.Point{grid.P(0, 0), grid.P(3, 3)})
	base := Options{Arena: arena, CubeSide: 2, Seed: 3}
	got, err := MinCapacity(seq, base, 50, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		t.Errorf("feasible lo should come back unchanged, got %v", got)
	}
}

// TestMinCapacityInfeasible checks the 1e12 cap error path with a demand no
// capacity can serve: the only vehicle on a 1-cell arena is dead before the
// first arrival and monitoring is off, so every probe fails.
func TestMinCapacityInfeasible(t *testing.T) {
	arena := grid.MustNew(1, 1)
	jobs := []grid.Point{grid.P(0)}
	_, err := MinCapacity(demand.NewSequence(jobs), Options{
		Arena: arena, CubeSide: 1, Seed: 1,
		Failure: &FailureModel{DeadBeforeArrival: map[grid.Point]int{grid.P(0): 0}},
	}, 1, 0.05)
	if err == nil {
		t.Fatal("a permanently dead fleet must report infeasibility")
	}
}

// TestCapacitySearchRejectsBadBounds pins that the search returns an error
// for a non-finite start capacity or a tolerance the bisection cannot meet.
// It used to return NaN for lo = NaN, the top of the bracket for tol = NaN,
// and to bisect forever at tol <= 0 once the bracket was two adjacent
// floats. Each call runs under a deadline, so a regression fails instead of
// hanging the suite.
func TestCapacitySearchRejectsBadBounds(t *testing.T) {
	arena, seq := hotPointSeq(20)
	opts := Options{Arena: arena, CubeSide: 8, Seed: 1}
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
		type answer struct {
			won float64
			err error
		}
		done := make(chan answer, 1)
		go func() {
			won, err := MinCapacity(seq, opts, tc.lo, tc.tol)
			done <- answer{won, err}
		}()
		select {
		case a := <-done:
			if a.err == nil {
				t.Errorf("%s: returned %v with no error", tc.name, a.won)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: search still running after 5s", tc.name)
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

// TestBracketBisectProbesOnce drives the search with threshold oracles over
// random starts, tolerances and thresholds — including thresholds at lo, at
// a bracket point and beyond the 1e12 cap. No capacity may be probed twice,
// and the answer (or error) must equal the reference loop's.
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
