package cmvrp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/grid"
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
	d, err := offline.NewDense(m, arena)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Algorithm1()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Alg1W != res.W {
		t.Errorf("solution Alg1W %v != fresh dense view's %v", sol.Alg1W, res.W)
	}
	sched, err := d.BuildSchedule(char)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sol.Schedule, sched) {
		t.Error("solution schedule differs from one built on a fresh dense view")
	}
	if sol.Schedule.OmegaC != sol.OmegaC || sol.Schedule.CubeSide != sol.CubeSide {
		t.Errorf("schedule characterization (%v, %d) drifted from solution (%v, %d)",
			sol.Schedule.OmegaC, sol.Schedule.CubeSide, sol.OmegaC, sol.CubeSide)
	}
}

// TestSolveOfflineBoundaryCube pins the known defect of Lemma 2.2.5's
// construction on a finite arena: on 4 cells with 13 jobs at cell 3,
// omega_c = 2 at cube side 3, so the budget is B = 6 and the clipped cube
// [3,3] holds one vehicle, which covers 12 of the 13 jobs. The input is
// valid, so the error must say the clipped cube is at fault.
func TestSolveOfflineBoundaryCube(t *testing.T) {
	arena, err := NewArena(4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := PointDemand(1, P(3), 13)
	if err != nil {
		t.Fatal(err)
	}
	char, err := offline.OmegaC(m, arena)
	if err != nil || char != (offline.CubeChar{Omega: 2, Side: 3}) {
		t.Fatalf("OmegaC = %+v, %v; want omega 2 at side 3", char, err)
	}
	if _, err := SolveOffline(m, arena); !errors.Is(err, ErrBoundaryCube) {
		t.Fatalf("SolveOffline error %v, want one wrapping ErrBoundaryCube", err)
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
// for a tolerance that is not positive and finite. At tol <= 0 it used to
// bisect forever once the bracket was two adjacent floats, so each call runs
// under a deadline and a regression fails instead of hanging the suite.
func TestMeasureWonRejectsBadTolerance(t *testing.T) {
	arena, err := NewArena(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	seq := NewSequence([]Point{P(0, 0), P(1, 1), P(2, 2), P(3, 3)})
	opts := OnlineOptions{Arena: arena, CubeSide: 2, Seed: 3}
	for _, tol := range []float64{0, -1, math.NaN(), math.Inf(1)} {
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
				t.Errorf("tol %v: MeasureWon returned %v with no error", tol, a.won)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("tol %v: MeasureWon still running after 5s", tol)
		}
	}
}

// TestFacadeRejectsMalformedInput pins that the facade returns an error, and
// neither panics nor hangs, on nil, overflowing or off-lattice input and on
// non-finite parameters. The row with 2^51 jobs pins a limit: those jobs
// times the five suppliers within radius 1 reach 2^53, past which the LP's
// integer max-flows would round. Every other row used to misbehave: the
// arenas were accepted (the first with Len 0, so RunOnline on it panicked;
// on the 2^62-cell one SolveOffline panicked in makeslice and
// NewOnlinePartition never returned, because every dense layer indexes
// cells with int32), the nil inputs panicked with a nil dereference,
// ZipfDemand never returned, Convoy returned a NaN or infinite W with no
// error, LP radii too large to list panicked (makeslice, or an index past
// int32-wrapped coordinates) or wrapped in int32 to another radius's
// answer, and a NaN longevity passed validation: as an override it gave
// p = 0's bound with no error, and as the default it failed only on the
// radius it made. Demand was accepted at points with a nonzero coordinate
// past its dimension, and in dimensions outside [1, MaxDim]; the LP's
// bounding box then took those axes from whichever point map iteration met
// first, so ExactLowerBound answered 0 or 2 on the same input. SquareDemand
// and LineDemand wrapped int32 coordinates (a side of 2^32+1 gave one
// point, and the line went on from -2^31), and TransferLowerBound scanned
// every square of a far-apart support's bounding box, past the deadline.
// Each row runs in its own goroutine under a deadline, with panics
// recovered, so a regression fails its row instead of crashing or hanging
// the suite.
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
	origin1D, err := PointDemand(1, P(0), 3)
	if err != nil {
		t.Fatal(err)
	}
	inexact, err := PointDemand(2, P(0, 0), 1<<51)
	if err != nil {
		t.Fatal(err)
	}
	otherArena, err := NewArena(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	otherPart, err := NewOnlinePartition(otherArena, 2)
	if err != nil {
		t.Fatal(err)
	}
	side4, err := NewOnlinePartition(arena, 4)
	if err != nil {
		t.Fatal(err)
	}
	seq := NewSequence([]Point{P(0, 0), P(1, 1), P(2, 2), P(3, 3)})
	wide, across, full := NewDemand(2), NewDemand(2), NewDemand(2)
	for _, err := range []error{wide.Add(P(0, 0), 1), wide.Add(P(2048, 2047), 1),
		across.Add(P(math.MinInt32, 0), 1), across.Add(P(math.MaxInt32, 0), 1),
		full.Add(P(0, 0), math.MaxInt64)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"NewArena size product wraps", func() error { _, err := NewArena(1<<32, 1<<32); return err }},
		{"NewArena axis beyond int32", func() error { _, err := NewArena(3_000_000_000); return err }},
		{"NewArena 2^62 cells", func() error { _, err := NewArena(1<<31, 1<<31); return err }},
		{"RunOnline nil sequence", func() error { _, err := RunOnline(nil, opts); return err }},
		{"MeasureWon nil sequence", func() error { _, err := MeasureWon(nil, opts, 0.01); return err }},
		{"MeasureWon Partition of another arena", func() error {
			_, err := MeasureWon(seq, OnlineOptions{Arena: arena, CubeSide: 2, Partition: otherPart}, 0.01)
			return err
		}},
		{"MeasureWon Partition of another arena, CubeSide 0", func() error {
			_, err := MeasureWon(seq, OnlineOptions{Arena: arena, Partition: otherPart}, 0.01)
			return err
		}},
		{"MeasureWon side-4 Partition, CubeSide 2", func() error {
			_, err := MeasureWon(seq, OnlineOptions{Arena: arena, CubeSide: 2, Partition: side4}, 0.01)
			return err
		}},
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
		{"ZipfDemand box of 2^63 cells, whose Volume wraps to MinInt64", func() error {
			huge := Box{Lo: P(math.MinInt32, 0), Hi: P(math.MaxInt32, math.MaxInt32), Dim: 2}
			_, err := ZipfDemand(rand.New(rand.NewSource(1)), huge, 10, 1.4)
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
		{"NewLPSolver 2^51 jobs at one point, radius 1", func() error { _, err := NewLPSolver(inexact, 1); return err }},
		{"NewDemand(1).Add at (3, 5)", func() error { return NewDemand(1).Add(P(3, 5), 5) }},
		{"NewDemand(0).Add", func() error { return NewDemand(0).Add(P(1), 5) }},
		{"NewDemand(MaxDim+1).Add", func() error { return NewDemand(grid.MaxDim+1).Add(P(1), 5) }},
		{"Demand.Add 1 job past a total of MaxInt64", func() error { return full.Add(P(1, 1), 1) }},
		{"ToSequence MaxInt64 jobs, sorted", func() error { _, err := ToSequence(full, OrderSorted, nil); return err }},
		{"ToSequence MaxInt64 jobs, shuffled", func() error {
			_, err := ToSequence(full, OrderShuffled, rand.New(rand.NewSource(1)))
			return err
		}},
		{"ToSequence MaxInt64 jobs, round robin", func() error { _, err := ToSequence(full, OrderRoundRobin, nil); return err }},
		{"PointDemand 1-D at (1, 2)", func() error { _, err := PointDemand(1, P(1, 2), 3); return err }},
		{"SquareDemand side 2^32+1 wraps to 1", func() error { _, err := SquareDemand(P(0, 0), 1<<32+1, 7); return err }},
		{"LineDemand past int32", func() error { _, err := LineDemand(P(2147483646, 0), 4, 1); return err }},
		{"TransferLowerBound box of 2049x2048 cells", func() error { _, err := TransferLowerBound(wide); return err }},
		{"TransferLowerBound across the int32 axis", func() error { _, err := TransferLowerBound(across); return err }},
		{"BrokenLowerBound override at (0, 5) over 1-D demand", func() error {
			_, err := BrokenLowerBound(origin1D, Longevity{Default: 1, Override: map[Point]float64{P(0, 5): 1}})
			return err
		}},
		{"BrokenLowerBound NaN override", func() error {
			_, err := BrokenLowerBound(origin1D, Longevity{Default: 1, Override: map[Point]float64{P(0): math.NaN()}})
			return err
		}},
		{"BrokenLowerBound NaN default", func() error {
			_, err := BrokenLowerBound(origin1D, Longevity{Default: math.NaN()})
			return err
		}},
	} {
		// MeasureWon takes its runners from pools shared across calls, keyed
		// by arena and cube side. Each MeasureWon row runs twice, each time
		// in one goroutine after a successful search at cube sides 2 and 4,
		// so that the row likely gets that search's pool: on another arena
		// (the pool then holds none of arena's runners) and on arena itself.
		// It must fail the same way both times.
		wonRow := strings.HasPrefix(tc.name, "MeasureWon")
		call := tc.call
		if wonRow {
			call = searchFirst(seq, otherArena, tc.call)
		}
		problem, err := guardedCall(call)
		if problem == "" && err == nil {
			problem = "no error"
		}
		if problem != "" {
			t.Errorf("%s: %s, want an error return", tc.name, problem)
			continue
		}
		if !wonRow {
			continue
		}
		problem, warm := guardedCall(searchFirst(seq, arena, tc.call))
		if problem != "" {
			t.Errorf("%s: %s after a successful search on the arena", tc.name, problem)
		} else if fmt.Sprint(warm) != err.Error() {
			t.Errorf("%s: %v after a successful search on the arena, %v after one on another", tc.name, warm, err)
		}
	}
}

// searchFirst returns call preceded by successful capacity searches for seq
// on arena at cube sides 2 and 4.
func searchFirst(seq *Sequence, arena *Arena, call func() error) func() error {
	return func() error {
		for _, side := range []int{2, 4} {
			if _, err := MeasureWon(seq, OnlineOptions{Arena: arena, CubeSide: side, Seed: 1}, 0.05); err != nil {
				return fmt.Errorf("the successful search failed: %w", err)
			}
		}
		return call()
	}
}

// guardedCall runs call under a 5 s deadline with panics recovered. It
// returns call's error, or a problem when call panicked or did not return
// in time.
func guardedCall(call func() error) (problem string, err error) {
	type outcome struct {
		problem string
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- outcome{problem: fmt.Sprintf("panic: %v", p)}
			}
		}()
		done <- outcome{err: call()}
	}()
	select {
	case o := <-done:
		return o.problem, o.err
	case <-time.After(5 * time.Second):
		return "still running after 5s", nil
	}
}

// TestFacadeAtInt32Edge runs, under guardedCall, two calls that reach the
// int32 edge of the lattice, where the box odometer used to wrap from
// MaxInt32 to MinInt32 and append forever: SquareDemand with its one cell
// at (MaxInt32, 0), and SolveOffline on the 2^31-cell line with 5 jobs on
// its last cell, at MaxInt32, whose last tile ends there.
func TestFacadeAtInt32Edge(t *testing.T) {
	problem, err := guardedCall(func() error {
		m, err := SquareDemand(P(math.MaxInt32, 0), 1, 5)
		if err == nil && (m.Total() != 5 || m.At(P(math.MaxInt32, 0)) != 5) {
			err = fmt.Errorf("%d jobs, %d at (MaxInt32, 0); want 5 there", m.Total(), m.At(P(math.MaxInt32, 0)))
		}
		return err
	})
	if problem != "" || err != nil {
		t.Errorf("SquareDemand at (MaxInt32, 0): %s %v", problem, err)
	}
	problem, err = guardedCall(func() error {
		arena, err := NewArena(1 << 31)
		if err != nil {
			return err
		}
		m, err := PointDemand(1, P(math.MaxInt32), 5)
		if err != nil {
			return err
		}
		sol, err := SolveOffline(m, arena)
		if err != nil {
			return err
		}
		_, err = offline.VerifySchedule(m, sol.Schedule, sol.Schedule.W)
		return err
	})
	if problem != "" || err != nil {
		t.Errorf("SolveOffline with 5 jobs at MaxInt32 of a 2^31-cell line: %s %v", problem, err)
	}
}

// TestConcurrentSolveOffline runs SolveOffline from four goroutines at once,
// 32 solves each over eight inputs (one of them failing with
// ErrBoundaryCube), on the workspaces the calls share through their pool:
// every answer must deep-equal the serial one, error included.
func TestConcurrentSolveOffline(t *testing.T) {
	type input struct {
		m     *Demand
		arena *Arena
	}
	rng := rand.New(rand.NewSource(36))
	var inputs []input
	for k := range 7 {
		n := 8 << (k % 3)
		arena, err := NewArena(n, n)
		if err != nil {
			t.Fatal(err)
		}
		box := Box{Lo: P(n/4, n/4), Hi: P(n/4+rng.Intn(n/2), n/4+rng.Intn(n/2)), Dim: 2}
		m, err := UniformDemand(rng, box, int64(10+rng.Intn(40*n)))
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{m, arena})
	}
	boundary, err := PointDemand(1, P(3), 13)
	if err != nil {
		t.Fatal(err)
	}
	line, err := NewArena(4)
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{boundary, line})
	type answer struct {
		sol *OfflineSolution
		err error
	}
	serial := make([]answer, len(inputs))
	for i, in := range inputs {
		serial[i].sol, serial[i].err = SolveOffline(in.m, in.arena)
	}
	if !errors.Is(serial[len(inputs)-1].err, ErrBoundaryCube) {
		t.Fatalf("boundary input: %v, want ErrBoundaryCube", serial[len(inputs)-1].err)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 32 {
				i := (g + 3*k) % len(inputs)
				sol, err := SolveOffline(inputs[i].m, inputs[i].arena)
				if !reflect.DeepEqual(answer{sol, err}, serial[i]) {
					t.Errorf("goroutine %d, solve %d, input %d: %+v, %v; serial %+v, %v", g, k, i, sol, err, serial[i].sol, serial[i].err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBrokenLowerBoundFarVehicle pins LP (4.1) for 100 jobs at the origin,
// default longevity 1e-6 and one vehicle of longevity 1 out on the x axis:
// the bound is that vehicle's distance, where it first reaches the demand
// with supply enough for every job. The float bisection this replaced
// listed every lattice point within reach on each probe: it took 1.39 s and
// 1.15 GB for the vehicle 200 cells out, and at 10,000 cells it stopped with
// an error before listing a box of 2.7e8 points. Each call runs under
// TestFacadeRejectsMalformedInput's 5 s deadline, and the first must
// allocate under 1 MB.
func TestBrokenLowerBoundFarVehicle(t *testing.T) {
	origin, err := PointDemand(2, P(0, 0), 100)
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		v     float64
		err   error
		bytes uint64
	}
	for _, x := range []int{200, 10000} {
		lon := Longevity{Default: 1e-6, Override: map[Point]float64{P(x, 0): 1}}
		done := make(chan answer, 1)
		go func() {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			v, err := BrokenLowerBound(origin, lon)
			runtime.ReadMemStats(&after)
			done <- answer{v, err, after.TotalAlloc - before.TotalAlloc}
		}()
		select {
		case a := <-done:
			if a.err != nil || a.v != float64(x) {
				t.Errorf("vehicle %d out: BrokenLowerBound = %v, %v; want %d", x, a.v, a.err, x)
			}
			if x == 200 && a.bytes >= 1<<20 {
				t.Errorf("vehicle %d out: allocated %d bytes, want under 1 MB", x, a.bytes)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("vehicle %d out: still running after 5s", x)
		}
	}
}

// FuzzSolveOffline drives the SolveOffline facade over 1-4-D arenas with
// sides 1-9 and at most 40 demand points of 0-255 jobs each; a coordinate
// byte of 248 or more puts its point just outside the arena. It must never
// panic. Each input is solved twice, on the pooled workspace the first
// solve left, and both answers must be equal, errors included. It may fail
// only where offline.OmegaC fails (demand outside the arena, or no cube
// size that fits) or with ErrBoundaryCube. A vehicle serves at most
// B = max(ceil(3^l*omega_c), 1) jobs at home and B at one destination in
// its cube, so a solution's W is at most 2B + l*(CubeSide-1).
func FuzzSolveOffline(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(0), uint8(0), uint8(0), []byte{3, 13}) // TestSolveOfflineBoundaryCube
	f.Add(uint8(1), uint8(3), uint8(3), uint8(0), uint8(0), []byte{1, 1, 5})
	f.Add(uint8(1), uint8(15), uint8(15), uint8(0), uint8(0), []byte{8, 8, 255, 3, 4, 40, 248, 2, 7})
	f.Add(uint8(3), uint8(4), uint8(2), uint8(6), uint8(1), []byte{2, 1, 3, 0, 200, 4, 0, 5, 1, 90})
	f.Fuzz(func(t *testing.T, dim, s0, s1, s2, s3 uint8, points []byte) {
		sizes := []int{1 + int(s0)%9, 1 + int(s1)%9, 1 + int(s2)%9, 1 + int(s3)%9}[:1+int(dim)%4]
		arena, err := NewArena(sizes...)
		if err != nil {
			t.Fatal(err)
		}
		l := len(sizes)
		m := NewDemand(l)
		for i := 0; i+l < len(points) && i < 40*(l+1); i += l + 1 {
			var p Point
			for j, size := range sizes {
				switch b := int(points[i+j]); {
				case b < 248:
					p[j] = int32(b % size)
				case b%2 == 0:
					p[j] = int32(size + (b-248)/2)
				default:
					p[j] = int32(-1 - (b-248)/2)
				}
			}
			if err := m.Add(p, int64(points[i+l])); err != nil {
				t.Fatal(err)
			}
		}
		sol, err := SolveOffline(m, arena)
		again, againErr := SolveOffline(m, arena)
		if !reflect.DeepEqual(sol, again) || !reflect.DeepEqual(err, againErr) {
			t.Fatalf("second run differs: %+v, %v; first %+v, %v", again, againErr, sol, err)
		}
		if err != nil {
			if _, cerr := offline.OmegaC(m, arena); cerr == nil && !errors.Is(err, ErrBoundaryCube) {
				t.Fatalf("SolveOffline failed on a characterized input: %v", err)
			}
			return
		}
		budget := max(math.Ceil(math.Pow(3, float64(l))*sol.OmegaC), 1)
		if bound := 2*budget + float64(l*max(sol.Schedule.CubeSide-1, 0)); sol.Schedule.W > bound {
			t.Fatalf("schedule W %v exceeds 2B + l(s-1) = %v (omega_c %v, side %d)",
				sol.Schedule.W, bound, sol.OmegaC, sol.Schedule.CubeSide)
		}
	})
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

// FuzzNewLPSolver drives the LP (2.1) facade over 1-2-D demand of at most 8
// points with coordinates 0-7 and 1-30 jobs each; a nonzero far byte moves
// point far-1 2,000 cells out on every axis, which sends the supply index to
// its sparse map, and huge sets the radius to 2^24, past the listable limit
// (otherwise the radius is 0-5). It must never panic, and NewLPSolver fails
// exactly on the huge radius, with an error wrapping lpchar.ErrTooLarge. A
// solver bound to another instance and then rebound to (m, r) returns the
// fresh solver's Value exactly, that Value equals Lemma 2.2.2's closed form
// lpchar.SubsetValue exactly (experiment E4's check), and ExactLowerBound
// equals the per-radius fresh reference omegaStarPerRadius.
func FuzzNewLPSolver(f *testing.F) {
	// TestSolverSparseSpreadFallback's two disjoint unit balls, close and
	// 2,000 cells apart, and the NewLPSolver row of
	// TestFacadeRejectsMalformedInput: 5 jobs at (1, 1), radius 2^24.
	f.Add(uint8(1), uint8(0), uint8(1), false, []byte{0, 0, 5, 7, 7, 5})
	f.Add(uint8(1), uint8(2), uint8(1), false, []byte{0, 0, 5, 7, 7, 5})
	f.Add(uint8(1), uint8(0), uint8(2), true, []byte{1, 1, 5})
	f.Add(uint8(0), uint8(1), uint8(3), false, []byte{0, 29, 3, 12, 7, 20})
	f.Fuzz(func(t *testing.T, dim, far, radius uint8, huge bool, points []byte) {
		l := 1 + int(dim)%2
		build := func(moved int) *Demand {
			m := NewDemand(l)
			for i, n := 0, 0; i+l < len(points) && n < 8; i, n = i+l+1, n+1 {
				var p Point
				for j := 0; j < l; j++ {
					p[j] = int32(points[i+j] % 8)
					if n == moved {
						p[j] += 2000
					}
				}
				if err := m.Add(p, 1+int64(points[i+l]%30)); err != nil {
					t.Fatal(err)
				}
			}
			return m
		}
		moved, otherMoved := int(far)-1, -1
		if far == 0 {
			otherMoved = 0
		}
		m := build(moved)
		if got, err := ExactLowerBound(m); err != nil || got != omegaStarPerRadius(t, m) {
			t.Fatalf("ExactLowerBound = %v, %v; per-radius fresh reference %v", got, err, omegaStarPerRadius(t, m))
		}
		r := int(radius) % 6
		if huge {
			r = 1 << 24
		}
		fresh, err := NewLPSolver(m, r)
		if huge != (err != nil) || err != nil && !errors.Is(err, lpchar.ErrTooLarge) {
			t.Fatalf("NewLPSolver(radius %d) = %v; want an error wrapping ErrTooLarge exactly past the limit", r, err)
		}
		if err != nil {
			return
		}
		want, err := fresh.Value()
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewLPSolver(build(otherMoved), 5-r)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Value(); err != nil {
			t.Fatal(err)
		}
		if err := s.Bind(m, r); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Value(); err != nil || got != want {
			t.Fatalf("rebound Value = %v, %v; fresh %v", got, err, want)
		}
		sub, err := lpchar.SubsetValue(m, r)
		if err != nil {
			t.Fatal(err)
		}
		if want != sub {
			t.Fatalf("LP value %v != Lemma 2.2.2 closed form %v", want, sub)
		}
	})
}

// omegaStarPerRadius is the reference route to program (2.8), as lpchar's
// TestOmegaStarFlowMatchesPerRadiusFresh transcribes it: a fresh solver per
// radius, and a bracket and bisection on the integer radius that evaluate
// LP (2.1) in full at every radius they visit, where ExactLowerBound runs
// one max-flow per radius test.
func omegaStarPerRadius(t *testing.T, m *Demand) float64 {
	t.Helper()
	if m.Total() == 0 {
		return 0
	}
	value := func(r int) float64 {
		s, err := NewLPSolver(m, r)
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.Value()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	hi := 1
	for value(hi) > float64(hi+1) {
		hi *= 2
		if int64(hi) > m.Max()+1 {
			break
		}
	}
	lo := 0
	for lo < hi {
		if mid := (lo + hi) / 2; value(mid) <= float64(mid+1) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return min(max(value(lo), float64(lo)), float64(lo+1))
}
