package cmvrp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/lpchar"
	"repro/internal/offline"
	"repro/internal/online"
)

func TestPublicOfflinePipeline(t *testing.T) {
	arena, err := NewArena(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	m, err := PointDemand(2, P(8, 8), 300)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveOffline(m, arena)
	if err != nil {
		t.Fatal(err)
	}
	if sol.OmegaC <= 0 || sol.CubeSide < 1 || sol.Schedule == nil {
		t.Fatalf("solution %+v", sol)
	}
	if sol.Schedule.W < sol.OmegaC {
		t.Errorf("schedule W %v below the lower bound %v", sol.Schedule.W, sol.OmegaC)
	}
	lb, err := ExactLowerBound(m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Schedule.W < lb*(1-1e-6) {
		t.Errorf("schedule W %v below exact omega* %v", sol.Schedule.W, lb)
	}
}

// TestSolveOfflineSingleCharacterization is the regression test for the
// double-OmegaC bug: SolveOffline characterizes once and feeds that
// characterization to the schedule construction, and the result is
// identical to running each stage standalone (which is what the old
// characterize-twice pipeline did).
func TestSolveOfflineSingleCharacterization(t *testing.T) {
	arena, err := NewArena(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	m, err := UniformDemand(rng, Box{Lo: P(4, 4), Hi: P(11, 11), Dim: 2}, 400)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveOffline(m, arena)
	if err != nil {
		t.Fatal(err)
	}
	char, err := offline.OmegaC(m, arena)
	if err != nil {
		t.Fatal(err)
	}
	if sol.OmegaC != char.Omega || sol.CubeSide != char.Side {
		t.Errorf("solution characterization (%v, %d) != standalone (%v, %d)",
			sol.OmegaC, sol.CubeSide, char.Omega, char.Side)
	}
	res, err := offline.Algorithm1(m, arena)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Alg1W != res.W {
		t.Errorf("solution Alg1W %v != standalone %v", sol.Alg1W, res.W)
	}
	sched, err := offline.BuildSchedule(m, arena)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sol.Schedule, sched) {
		t.Error("solution schedule differs from standalone BuildSchedule")
	}
	if sol.Schedule.OmegaC != sol.OmegaC || sol.Schedule.CubeSide != sol.CubeSide {
		t.Errorf("schedule characterization (%v, %d) drifted from solution (%v, %d)",
			sol.Schedule.OmegaC, sol.Schedule.CubeSide, sol.OmegaC, sol.CubeSide)
	}
}

// TestLPSolverFacade exercises the exported warm solver: its values, before
// and after a rebind, match a freshly built solver bit-for-bit.
func TestLPSolverFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, err := UniformDemand(rng, mustBox(t), 60)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func(r int) float64 {
		s, err := lpchar.NewSolver(m, r)
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.Value()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	s, err := NewLPSolver(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.Value()
	if err != nil {
		t.Fatal(err)
	}
	if cold := fresh(2); warm != cold {
		t.Errorf("LPSolver value %v != fresh solver %v", warm, cold)
	}
	if err := s.Bind(m, 3); err != nil {
		t.Fatal(err)
	}
	rebound, err := s.Value()
	if err != nil {
		t.Fatal(err)
	}
	if coldR3 := fresh(3); rebound != coldR3 {
		t.Errorf("rebound value %v != fresh solver %v", rebound, coldR3)
	}
}

func TestPublicOnlinePipeline(t *testing.T) {
	arena, err := NewArena(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	m, err := UniformDemand(rng, mustBox(t), 100)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveOffline(m, arena)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := ToSequence(m, OrderShuffled, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := 38 * math.Max(sol.OmegaC, 1)
	res, err := RunOnline(seq, OnlineOptions{
		Arena: arena, CubeSide: sol.CubeSide, Capacity: w, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("online failures: %v", res.Failures)
	}
	g, err := GreedyBaseline(seq, arena, w)
	if err != nil {
		t.Fatal(err)
	}
	if !g.OK() {
		t.Error("greedy baseline should also succeed at the theorem capacity")
	}
}

func mustBox(t *testing.T) Box {
	t.Helper()
	return Box{Lo: P(2, 2), Hi: P(5, 5), Dim: 2}
}

func TestManhattanExport(t *testing.T) {
	if Manhattan(P(0, 0), P(3, 4)) != 7 {
		t.Error("Manhattan export broken")
	}
}

func TestBrokenAndTransferExports(t *testing.T) {
	m, err := PointDemand(2, P(0, 0), 50)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := BrokenLowerBound(m, Longevity{Default: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lb <= 0 {
		t.Error("broken lower bound should be positive")
	}
	tb, err := TransferLowerBound(m)
	if err != nil {
		t.Fatal(err)
	}
	if tb <= 0 {
		t.Error("transfer lower bound should be positive")
	}
	res, err := Convoy(ConvoyParams{
		Demands: []int64{5, 5, 5, 5}, Accounting: FixedCost, A1: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.W <= 0 || res.Slack < -1e-6 {
		t.Errorf("convoy %+v", res)
	}
}

func TestMeasureWonSmall(t *testing.T) {
	arena, err := NewArena(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	seq := NewSequence([]Point{P(0, 0), P(1, 1), P(2, 2), P(3, 3)})
	won, err := MeasureWon(seq, OnlineOptions{Arena: arena, CubeSide: 2, Seed: 3}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if won < 2 || won > 10 {
		t.Errorf("Won %v out of sane range for 4 spread jobs", won)
	}
}

// TestSharedPartitionAcrossRuns exercises the sweep pattern the warm-start
// work enables at the facade: build the geometry once, reuse it for both a
// direct run and a capacity search, and get the same answers as without
// sharing.
func TestSharedPartitionAcrossRuns(t *testing.T) {
	arena, err := NewArena(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewOnlinePartition(arena, 2)
	if err != nil {
		t.Fatal(err)
	}
	seq := NewSequence([]Point{P(0, 0), P(1, 1), P(2, 2), P(3, 3)})
	shared := OnlineOptions{Arena: arena, CubeSide: 2, Partition: part, Seed: 3}
	plain := OnlineOptions{Arena: arena, CubeSide: 2, Seed: 3}

	sharedOpts, plainOpts := shared, plain
	sharedOpts.Capacity, plainOpts.Capacity = 8, 8
	a, err := RunOnline(seq, sharedOpts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOnline(seq, plainOpts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Served != b.Served || a.Messages != b.Messages || a.MaxEnergy != b.MaxEnergy {
		t.Errorf("shared partition changed the run: %+v vs %+v", a, b)
	}

	wonShared, err := MeasureWon(seq, shared, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	wonPlain, err := MeasureWon(seq, plain, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if wonShared != wonPlain {
		t.Errorf("MeasureWon with shared partition %v != %v without", wonShared, wonPlain)
	}
}

func TestRunSweepMatchesRunOnline(t *testing.T) {
	arena, err := NewArena(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Point, 40)
	for i := range jobs {
		jobs[i] = P(4, 4)
	}
	seq := NewSequence(jobs)
	var scenarios []SweepScenario
	for seed := int64(1); seed <= 4; seed++ {
		scenarios = append(scenarios, SweepScenario{
			Opts: OnlineOptions{Arena: arena, CubeSide: 8, Capacity: 24, Seed: seed},
			Seq:  seq,
		})
	}
	// The sweep must agree with per-episode RunOnline for every worker
	// count (the pooled warm runners replay bit-for-bit like fresh ones).
	for _, workers := range []int{1, 3} {
		results, err := RunSweep(scenarios, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(scenarios) {
			t.Fatalf("got %d results", len(results))
		}
		for i, sc := range scenarios {
			solo, err := RunOnline(seq, sc.Opts)
			if err != nil {
				t.Fatal(err)
			}
			got := results[i]
			if got.Served != solo.Served || got.Messages != solo.Messages ||
				got.Replacements != solo.Replacements || got.MaxEnergy != solo.MaxEnergy {
				t.Errorf("workers=%d scenario %d: sweep %+v, solo %+v", workers, i, got, solo)
			}
		}
	}
}

// TestOnlineRejectsNonFiniteCapacity pins that an episode capacity which is
// not positive and finite is an error at both entry points, a fresh run
// (RunOnline) and a pooled runner's ResetEpisode. NaN and +Inf used to pass
// the capacity check and make every energy test false: on an 8x8 arena
// whose 200 jobs all arrive at one cell, where capacity 3 serves 3 jobs,
// they served all 200 with MaxEnergy 200 and no error.
func TestOnlineRejectsNonFiniteCapacity(t *testing.T) {
	arena, err := NewArena(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Point, 200)
	for i := range jobs {
		jobs[i] = P(3, 3)
	}
	seq := NewSequence(jobs)
	base := OnlineOptions{Arena: arena, CubeSide: 4, Capacity: 3, Seed: 1}
	res, err := RunOnline(seq, base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 3 {
		t.Fatalf("capacity 3 control served %d jobs, want 3", res.Served)
	}
	for _, tc := range []struct {
		name     string
		capacity float64
	}{
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
		{"zero", 0},
		{"negative", -3},
	} {
		opts := base
		opts.Capacity = tc.capacity
		if res, err := RunOnline(seq, opts); err == nil {
			t.Errorf("%s: RunOnline served %d with MaxEnergy %v, want an error",
				tc.name, res.Served, res.MaxEnergy)
		}
		r, err := online.NewRunner(base)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.ResetEpisode(opts); err == nil {
			t.Errorf("%s: ResetEpisode accepted the capacity, want an error", tc.name)
		}
	}
}

// TestMeasureWonRejectsBadTolerance pins that MeasureWon returns an error
// for a tolerance that is not positive and finite, on the serial and the
// parallel search. At tol <= 0 it used to bisect forever once the bracket
// was two adjacent floats, so each call runs under a deadline and a
// regression fails instead of hanging the suite.
func TestMeasureWonRejectsBadTolerance(t *testing.T) {
	arena, err := NewArena(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	seq := NewSequence([]Point{P(0, 0), P(1, 1), P(2, 2), P(3, 3)})
	for _, tol := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		for _, workers := range []int{0, 2} {
			opts := OnlineOptions{Arena: arena, CubeSide: 2, Seed: 3, SearchWorkers: workers}
			type answer struct {
				won float64
				err error
			}
			done := make(chan answer, 1)
			go func() {
				won, err := MeasureWon(seq, opts, tol)
				done <- answer{won, err}
			}()
			select {
			case a := <-done:
				if a.err == nil {
					t.Errorf("tol %v, workers %d: MeasureWon returned %v with no error", tol, workers, a.won)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("tol %v, workers %d: MeasureWon still running after 5s", tol, workers)
			}
		}
	}
}

// TestFacadeRejectsMalformedInput pins that the facade returns an error, and
// neither panics nor hangs, on nil or overflowing input and on non-finite
// parameters. Every row used to misbehave: the arenas were accepted (the
// first with Len 0, so RunOnline on it panicked), the nil inputs panicked
// with a nil dereference, ZipfDemand never returned, Convoy returned a NaN
// or infinite W with no error, and LP radii too large to list panicked
// (makeslice, or an index past int32-wrapped coordinates) or wrapped in
// int32 to another radius's answer. Each row runs in its own goroutine under
// a deadline, with panics recovered, so a regression fails its row instead
// of crashing or hanging the suite.
func TestFacadeRejectsMalformedInput(t *testing.T) {
	arena, err := NewArena(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	opts := OnlineOptions{Arena: arena, CubeSide: 2, Capacity: 5, Seed: 1}
	box := Box{Lo: P(0, 0), Hi: P(3, 3), Dim: 2}
	line := []int64{2, 0, 3, 1}
	point, err := PointDemand(2, P(1, 1), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"NewArena size product wraps", func() error { _, err := NewArena(1<<32, 1<<32); return err }},
		{"NewArena axis beyond int32", func() error { _, err := NewArena(3_000_000_000); return err }},
		{"RunOnline nil sequence", func() error { _, err := RunOnline(nil, opts); return err }},
		{"MeasureWon nil sequence", func() error { _, err := MeasureWon(nil, opts, 0.01); return err }},
		{"RunSweep nil Seq", func() error { _, err := RunSweep([]SweepScenario{{Opts: opts}}, 1); return err }},
		{"GreedyBaseline nil sequence", func() error { _, err := GreedyBaseline(nil, arena, 5); return err }},
		{"NewOnlinePartition nil arena", func() error { _, err := NewOnlinePartition(nil, 2); return err }},
		{"ZipfDemand NaN skew", func() error {
			_, err := ZipfDemand(rand.New(rand.NewSource(1)), box, 10, math.NaN())
			return err
		}},
		{"ZipfDemand +Inf skew", func() error {
			_, err := ZipfDemand(rand.New(rand.NewSource(1)), box, 10, math.Inf(1))
			return err
		}},
		{"Convoy NaN a1", func() error {
			_, err := Convoy(ConvoyParams{Demands: line, Accounting: FixedCost, A1: math.NaN()})
			return err
		}},
		{"Convoy +Inf a1", func() error {
			_, err := Convoy(ConvoyParams{Demands: line, Accounting: FixedCost, A1: math.Inf(1)})
			return err
		}},
		{"Convoy NaN a2", func() error {
			_, err := Convoy(ConvoyParams{Demands: line, Accounting: VariableCost, A2: math.NaN()})
			return err
		}},
		{"NewLPSolver radius 2^24", func() error { _, err := NewLPSolver(point, 1<<24); return err }},
		{"NewLPSolver radius 2^32 wraps to 0", func() error { _, err := NewLPSolver(point, 1<<32); return err }},
		{"NewLPSolver radius 2^32+1", func() error { _, err := NewLPSolver(point, 1<<32+1); return err }},
		{"LPSolver.ExtendRadius 2^40", func() error { s, _ := NewLPSolver(point, 2); return s.ExtendRadius(1 << 40) }},
	} {
		done := make(chan error, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					done <- fmt.Errorf("panic: %v", p)
				}
			}()
			if err := tc.call(); err == nil {
				done <- errors.New("no error")
			} else {
				done <- nil
			}
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v, want an error return", tc.name, err)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s: still running after 5s", tc.name)
		}
	}
}

// FuzzRunOnline drives the RunOnline facade over small episodes: 1-3-D
// arenas with sides 1-6, cube sides from -1 to far past the arena,
// capacities in [0, 50), at most 40 in-arena arrivals, monitoring on or off,
// either scheduler, and diffuse search or gossip with fanout 0-3. It must
// never panic. When the run succeeds, every arrival is served or lost
// exactly once (a lost job's reason starts with "vehicle "), every other
// failure is a relocation its recruit could not afford ("recruit "), no
// vehicle spends past the capacity, and a second run returns the same
// Result.
func FuzzRunOnline(f *testing.F) {
	cubeSides := []int{-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, math.MaxInt32 + 1, math.MaxInt}
	// The seeds vary TestFacadeRejectsMalformedInput's base options: a 4x4
	// arena, cube side 2 (index 3), capacity 5, seed 1.
	arrivals := []byte{1, 1, 2, 2, 0, 3, 3, 0, 1, 2, 2, 1, 1, 1, 3, 3}
	for _, seed := range []struct {
		cube     uint8
		capacity float64
	}{{3, 5}, {0, 5}, {1, 5}, {11, 5}, {3, 0}} {
		f.Add(uint8(1), uint8(3), uint8(3), uint8(0), seed.cube, seed.capacity, int64(1),
			false, false, uint8(0), arrivals)
	}
	f.Fuzz(func(t *testing.T, dim, s0, s1, s2, cube uint8, capacity float64, seed int64,
		monitoring, sealed bool, search uint8, coords []byte) {
		sizes := []int{1 + int(s0)%6, 1 + int(s1)%6, 1 + int(s2)%6}[:1+int(dim)%3]
		arena, err := NewArena(sizes...)
		if err != nil {
			t.Fatal(err)
		}
		var jobs []Point
		for i := 0; i+len(sizes) <= len(coords) && len(jobs) < 40; i += len(sizes) {
			var pt Point
			for j, size := range sizes {
				pt[j] = int32(int(coords[i+j]) % size)
			}
			jobs = append(jobs, pt)
		}
		opts := OnlineOptions{
			Arena:      arena,
			CubeSide:   cubeSides[int(cube)%len(cubeSides)],
			Capacity:   math.Mod(math.Abs(capacity), 50),
			Seed:       seed,
			Monitoring: monitoring,
		}
		if math.IsNaN(opts.Capacity) {
			opts.Capacity = 0
		}
		if sealed {
			opts.SimShards = 1
		}
		if search%5 > 0 {
			opts.Search, opts.GossipFanout = SearchGossip, int(search%5)-1
		}
		seq := NewSequence(jobs)
		res, err := RunOnline(seq, opts)
		if err != nil {
			return // rejected input: not panicking is the property
		}
		lost := int64(0)
		for _, fl := range res.Failures {
			switch {
			case strings.HasPrefix(fl.Reason, "vehicle "):
				lost++
			case !strings.HasPrefix(fl.Reason, "recruit "):
				t.Fatalf("failure %q is neither a lost job nor a relocation", fl.Reason)
			}
		}
		if lost != int64(len(jobs))-res.Served {
			t.Fatalf("%d arrivals, %d served, but %d lost-job failures", len(jobs), res.Served, lost)
		}
		if res.MaxEnergy > opts.Capacity {
			t.Fatalf("max energy %v exceeds capacity %v", res.MaxEnergy, opts.Capacity)
		}
		again, err := RunOnline(seq, opts)
		if err != nil || !reflect.DeepEqual(res, again) {
			t.Fatalf("second run differs: %+v, %v; first %+v", again, err, res)
		}
	})
}
