package online

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
// bracket's low end, serveCost, already serves everything (here an empty
// sequence), serveCost itself comes back.
func TestMinCapacityLoFeasible(t *testing.T) {
	arena := grid.MustNew(4, 4)
	base := Options{Arena: arena, CubeSide: 2, Seed: 3}
	got, err := MinCapacity(demand.NewSequence(nil), base, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got != serveCost {
		t.Errorf("a feasible low end should come back unchanged, got %v, want %v", got, serveCost)
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
	}, 0.05)
	if !errors.Is(err, grid.ErrNoFeasible) {
		t.Fatalf("a permanently dead fleet must report ErrNoFeasible, got %v", err)
	}
}

// TestCapacitySearchRejectsBadBounds pins that the search returns an error
// for a tolerance the bisection cannot meet. It used to return the top of
// the bracket for tol = NaN, and to bisect forever at tol <= 0 once the
// bracket was two adjacent floats. Each call runs under a deadline, so a
// regression fails instead of hanging the suite.
func TestCapacitySearchRejectsBadBounds(t *testing.T) {
	arena, seq := hotPointSeq(20)
	opts := Options{Arena: arena, CubeSide: 8, Seed: 1}
	for _, tc := range []struct {
		name string
		tol  float64
	}{
		{"tol NaN", math.NaN()},
		{"tol +Inf", math.Inf(1)},
		{"tol 0", 0},
		{"tol -1", -1},
		{"tol below float spacing", 1e-300},
	} {
		type answer struct {
			won float64
			err error
		}
		done := make(chan answer, 1)
		go func() {
			won, err := MinCapacity(seq, opts, tc.tol)
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

// fullEpisodeProber is the capacity probe as it stood before probes stopped
// at their first failure: every probe plays the whole sequence with Run and
// reads its verdict from the Result. It is the reference for prober.
type fullEpisodeProber struct {
	seq  *demand.Sequence
	base Options
	r    *Runner
}

func (p *fullEpisodeProber) probe(w float64) (bool, error) {
	if p.r == nil {
		opts := p.base
		opts.Capacity = w
		r, err := NewRunner(opts)
		if err != nil {
			return false, err
		}
		p.r = r
	} else if err := p.r.Reset(w, p.base.Seed); err != nil {
		return false, err
	}
	res, err := p.r.Run(p.seq)
	if err != nil {
		return false, err
	}
	return res.OK() && res.SearchFailures == 0, nil
}

// searchConfigs is the number of configurations randomSearchInstance
// cycles through.
const searchConfigs = 16

// randomSearchInstance draws a small 1-2-D capacity-search instance in
// configuration k: bit 0 selects the sealed-round scheduler, bit 1 gossip
// search, bit 2 monitoring, and bit 3 a failure model with a crash-initiate
// cell, a scheduled death that is also Byzantine, and two longevity
// breakdowns. Most arrivals hit one to three hot cells, so vehicles exhaust,
// search and fail well before the end of the sequence.
func randomSearchInstance(rng *rand.Rand, k int) (*demand.Sequence, Options) {
	var arena *grid.Grid
	if rng.Intn(2) == 0 {
		arena = grid.MustNew(4 + rng.Intn(9))
	} else {
		arena = grid.MustNew(2+rng.Intn(4), 2+rng.Intn(4))
	}
	cell := func() grid.Point { return arena.PointAt(rng.Int63n(arena.Len())) }
	hot := []grid.Point{cell(), cell(), cell()}[:1+rng.Intn(3)]
	jobs := make([]grid.Point, 10+rng.Intn(40))
	for i := range jobs {
		jobs[i] = hot[rng.Intn(len(hot))]
		if rng.Intn(4) == 0 {
			jobs[i] = cell()
		}
	}
	opts := Options{
		Arena: arena, CubeSide: 1 + rng.Intn(min(arena.MinSize(), 4)), Seed: rng.Int63(),
		SimShards: k & 1, Monitoring: k&4 != 0,
	}
	if k&2 != 0 {
		opts.Search, opts.GossipFanout = SearchGossip, rng.Intn(4)
	}
	if k&8 != 0 {
		dead := cell()
		opts.Failure = &FailureModel{
			FailInitiate:      map[grid.Point]bool{cell(): true},
			DeadBeforeArrival: map[grid.Point]int{dead: rng.Intn(len(jobs))},
			Byzantine:         map[grid.Point]bool{dead: true},
			Longevity:         map[grid.Point]float64{cell(): rng.Float64(), cell(): rng.Float64()},
		}
	}
	return demand.NewSequence(jobs), opts
}

// TestMinCapacityMatchesFullEpisodeSearch pins that stopping infeasible
// probes at their first failure changes no answer: on random small
// instances in every configuration of randomSearchInstance, each probe's
// verdict (or error) equals the full episode's, and MinCapacity equals the
// search over full-episode probes with ==. It also checks that probes did
// stop early, so the comparison is not vacuous.
func TestMinCapacityMatchesFullEpisodeSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var probes, infeasible, early, feasibleSearches int
	for trial := 0; trial < 240; trial++ {
		seq, opts := randomSearchInstance(rng, trial%searchConfigs)
		tol := 0.01 + 0.09*rng.Float64()
		full := &fullEpisodeProber{seq: seq, base: opts}
		stop := &prober{seq: seq, base: opts}
		want, wantErr := grid.Least(func(w float64) (bool, error) {
			ok, err := full.probe(w)
			got, gotErr := stop.probe(w)
			if got != ok || fmt.Sprint(gotErr) != fmt.Sprint(err) {
				t.Fatalf("trial %d, capacity %v: stopped probe %v (%v), full episode %v (%v)",
					trial, w, got, gotErr, ok, err)
			}
			probes++
			if !ok {
				infeasible++
				if stop.r.currentArrival < seq.Len()-1 {
					early++
				}
			}
			return ok, err
		}, serveCost, serveCost, tol)
		got, err := MinCapacity(seq, opts, tol)
		if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("trial %d: MinCapacity %v (%v), full-episode search %v (%v)",
				trial, got, err, want, wantErr)
		}
		if err == nil {
			feasibleSearches++
		}
	}
	t.Logf("%d probes, %d infeasible, %d of them stopped before the last arrival; %d of 240 searches found a capacity",
		probes, infeasible, early, feasibleSearches)
	if early == 0 || feasibleSearches == 0 {
		t.Fatalf("no probe stopped early (%d) or no search succeeded (%d)", early, feasibleSearches)
	}
}

// TestResetAfterStoppedProbeMatchesFresh stops runners mid-sequence at their
// first failure, as an infeasible capacity probe does, then Resets each to
// another capacity and seed and plays the whole sequence: the Result must be
// deep-equal to a fresh runner's. Every configuration of
// randomSearchInstance contributes two stops.
func TestResetAfterStoppedProbeMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for k := 0; k < searchConfigs; k++ {
		stops := 0
		for attempt := 0; stops < 2; attempt++ {
			if attempt == 200 {
				t.Fatalf("configuration %d: %d mid-sequence stops in %d instances", k, stops, attempt)
			}
			seq, opts := randomSearchInstance(rng, k)
			opts.Capacity = serveCost + 4*rng.Float64()
			r := mustRunner(t, opts)
			if err := r.play(seq, true); err != nil {
				t.Fatal(err)
			}
			if !r.failed() || r.currentArrival == seq.Len()-1 {
				continue // the episode did not stop mid-sequence
			}
			stops++
			opts.Capacity, opts.Seed = serveCost+30*rng.Float64(), rng.Int63()
			if err := r.Reset(opts.Capacity, opts.Seed); err != nil {
				t.Fatal(err)
			}
			warm, err := r.Run(seq)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := mustRunner(t, opts).Run(seq)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(warm, fresh) {
				t.Fatalf("configuration %d: run after a stopped probe diverged:\nwarm  %+v\nfresh %+v", k, warm, fresh)
			}
		}
	}
}
