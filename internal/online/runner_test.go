package online

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/demand"
	"repro/internal/grid"
	"repro/internal/offline"
)

func mustRunner(t *testing.T, opts Options) *Runner {
	t.Helper()
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// checkPairOwnership asserts that pair ownership is unique: the vehicle
// pairActive registers for pair P serves P, so no vehicle holds two pairs.
// The watchers rely on it, since a beacon or complaint for P goes to
// pairActive[WatcherPair(P)] and so names the one pair its receiver
// watches.
func checkPairOwnership(t *testing.T, r *Runner) {
	t.Helper()
	for p, id := range r.pairActive {
		if got := r.vehicles[id].pairID; got != p {
			t.Fatalf("pair %d is registered to the vehicle homed at %v, which serves pair %d",
				p, r.vehicles[id].home, got)
		}
	}
}

// runOwned plays seq on a fresh runner for opts and checks pair ownership
// after the run.
func runOwned(t *testing.T, opts Options, seq *demand.Sequence) (*Result, error) {
	t.Helper()
	r := mustRunner(t, opts)
	res, err := r.Run(seq)
	if err == nil {
		checkPairOwnership(t, r)
	}
	return res, err
}

func TestNewRunnerValidation(t *testing.T) {
	if _, err := NewRunner(Options{}); err == nil {
		t.Error("missing arena should fail")
	}
	if _, err := NewRunner(Options{Arena: grid.MustNew(4, 4), CubeSide: 2}); err == nil {
		t.Error("non-positive capacity should fail")
	}
	if _, err := NewRunner(Options{Arena: grid.MustNew(4, 4), CubeSide: 0, Capacity: 5}); err == nil {
		t.Error("cube side 0 should fail")
	}
	if _, err := NewRunner(Options{Arena: grid.MustNew(4, 4), CubeSide: 4, Capacity: 5, SimShards: -1}); err == nil {
		t.Error("negative SimShards should fail")
	}
}

func TestServeSingleJobAtActiveVertex(t *testing.T) {
	arena := grid.MustNew(4, 4)
	r := mustRunner(t, Options{Arena: arena, CubeSide: 4, Capacity: 10, Seed: 1})
	// The service (black) vertex of some pair.
	pos := r.Partition().Pairs()[0].ServicePos()
	res, err := r.Run(demand.NewSequence([]grid.Point{pos}))
	if err != nil {
		t.Fatal(err)
	}
	checkPairOwnership(t, r)
	if !res.OK() || res.Served != 1 {
		t.Fatalf("result %+v", res)
	}
	if res.MaxEnergy != 1 { // no walk needed
		t.Errorf("max energy %v, want 1", res.MaxEnergy)
	}
}

func TestServeJobAtWhitePartnerCostsWalk(t *testing.T) {
	arena := grid.MustNew(4, 4)
	r := mustRunner(t, Options{Arena: arena, CubeSide: 4, Capacity: 10, Seed: 1})
	var white grid.Point
	found := false
	for _, pr := range r.Partition().Pairs() {
		if !pr.Single {
			white = pr.Cells[1]
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no full pair")
	}
	res, err := r.Run(demand.NewSequence([]grid.Point{white}))
	if err != nil {
		t.Fatal(err)
	}
	checkPairOwnership(t, r)
	if !res.OK() || res.MaxEnergy != 2 { // walk 1 + serve 1
		t.Fatalf("result %+v", res)
	}
}

func TestReplacementViaDiffusion(t *testing.T) {
	// Hammer one point with more jobs than one vehicle's capacity: the
	// active vehicle must exhaust and recruit idle vehicles via Phase I/II.
	arena := grid.MustNew(4, 4)
	capacity := 6.0
	r := mustRunner(t, Options{Arena: arena, CubeSide: 4, Capacity: capacity, Seed: 7})
	pos := r.Partition().Pairs()[0].ServicePos()
	jobs := make([]grid.Point, 20)
	for i := range jobs {
		jobs[i] = pos
	}
	res, err := r.Run(demand.NewSequence(jobs))
	if err != nil {
		t.Fatal(err)
	}
	checkPairOwnership(t, r)
	if !res.OK() {
		t.Fatalf("failures: %v", res.Failures)
	}
	if res.Served != 20 {
		t.Errorf("served %d of 20", res.Served)
	}
	if res.Replacements < 3 {
		t.Errorf("expected several replacements, got %d", res.Replacements)
	}
	if res.MaxEnergy > capacity {
		t.Errorf("energy %v exceeded capacity %v", res.MaxEnergy, capacity)
	}
	if res.SearchFailures != 0 {
		t.Errorf("search failures: %d", res.SearchFailures)
	}
}

func TestCapacityExhaustionReportsFailures(t *testing.T) {
	// A 2x2 arena has 2 pairs = 4 vehicles; demand beyond total capacity
	// must fail rather than hang or over-serve.
	arena := grid.MustNew(2, 2)
	capacity := 4.0
	r := mustRunner(t, Options{Arena: arena, CubeSide: 2, Capacity: capacity, Seed: 3})
	pos := r.Partition().Pairs()[0].ServicePos()
	jobs := make([]grid.Point, 50)
	for i := range jobs {
		jobs[i] = pos
	}
	res, err := r.Run(demand.NewSequence(jobs))
	if err != nil {
		t.Fatal(err)
	}
	checkPairOwnership(t, r)
	if res.OK() {
		t.Fatal("50 jobs cannot fit in 4 vehicles x capacity 4")
	}
	if res.Served == 0 {
		t.Error("some jobs should have been served before exhaustion")
	}
	if res.MaxEnergy > capacity {
		t.Errorf("energy %v exceeded capacity %v", res.MaxEnergy, capacity)
	}
}

func TestRunDeterminism(t *testing.T) {
	arena := grid.MustNew(6, 6)
	rng := rand.New(rand.NewSource(11))
	b, err := grid.NewBox(2, grid.P(0, 0), grid.P(5, 5))
	if err != nil {
		t.Fatal(err)
	}
	m, err := demand.Uniform(rng, b, 60)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := demand.SequenceOf(m, demand.OrderShuffled, rng)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		r := mustRunner(t, Options{Arena: arena, CubeSide: 3, Capacity: 12, Seed: 42, Monitoring: true})
		res, err := r.Run(seq)
		if err != nil {
			t.Fatal(err)
		}
		checkPairOwnership(t, r)
		return res
	}
	a, b2 := run(), run()
	if a.Served != b2.Served || a.Messages != b2.Messages ||
		a.Replacements != b2.Replacements || a.MaxEnergy != b2.MaxEnergy {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b2)
	}
}

func TestArrivalOutsideArena(t *testing.T) {
	r := mustRunner(t, Options{Arena: grid.MustNew(4, 4), CubeSide: 2, Capacity: 5, Seed: 1})
	if _, err := r.Run(demand.NewSequence([]grid.Point{grid.P(99, 99)})); err == nil {
		t.Error("out-of-arena arrival should error")
	}
}

// TestTheorem142Bound is experiment E7's heart: with capacity
// W = (4*3^l + l) * omega_c the online strategy serves every job.
func TestTheorem142Bound(t *testing.T) {
	arena := grid.MustNew(8, 8)
	rng := rand.New(rand.NewSource(19))
	inner, err := grid.NewBox(2, grid.P(2, 2), grid.P(5, 5))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		m, err := demand.Uniform(rng, inner, 100+rng.Int63n(150))
		if err != nil {
			t.Fatal(err)
		}
		char, err := offline.OmegaC(m, arena)
		if err != nil {
			t.Fatal(err)
		}
		l := 2
		w := float64(4*9+l) * math.Max(char.Omega, 1)
		seq, err := demand.SequenceOf(m, demand.OrderShuffled, rng)
		if err != nil {
			t.Fatal(err)
		}
		r := mustRunner(t, Options{
			Arena: arena, CubeSide: char.Side, Capacity: w, Seed: int64(trial),
		})
		res, err := r.Run(seq)
		if err != nil {
			t.Fatal(err)
		}
		checkPairOwnership(t, r)
		if !res.OK() {
			t.Errorf("trial %d: W=(4*3^l+l)*omega_c=%v insufficient: %v",
				trial, w, res.Failures[0])
		}
		if res.SearchFailures > 0 {
			t.Errorf("trial %d: %d search failures at theorem capacity",
				trial, res.SearchFailures)
		}
	}
}

func TestScenario2FailedInitiatorRescuedByMonitoring(t *testing.T) {
	arena := grid.MustNew(4, 4)
	// Capacity must exceed the cube diameter (6) plus the serve reserve, or
	// recruits from the far corner arrive exhausted — the l*omega move term
	// in Theorem 1.4.2's constant exists exactly for this.
	capacity := 12.0
	build := func(monitoring bool) (*Runner, grid.Point) {
		r := mustRunner(t, Options{
			Arena: arena, CubeSide: 4, Capacity: capacity, Seed: 5,
			Monitoring: monitoring,
			Failure: &FailureModel{FailInitiate: map[grid.Point]bool{
				// Every vehicle fails to initiate; only monitoring saves us.
				grid.P(0, 0): true, grid.P(0, 1): true, grid.P(1, 0): true,
				grid.P(1, 1): true, grid.P(0, 2): true, grid.P(0, 3): true,
				grid.P(1, 2): true, grid.P(1, 3): true, grid.P(2, 0): true,
				grid.P(2, 1): true, grid.P(3, 0): true, grid.P(3, 1): true,
				grid.P(2, 2): true, grid.P(2, 3): true, grid.P(3, 2): true,
				grid.P(3, 3): true,
			}},
		})
		return r, r.Partition().Pairs()[0].ServicePos()
	}
	jobs := func(pos grid.Point) *demand.Sequence {
		js := make([]grid.Point, 16)
		for i := range js {
			js[i] = pos
		}
		return demand.NewSequence(js)
	}

	r, pos := build(true)
	res, err := r.Run(jobs(pos))
	if err != nil {
		t.Fatal(err)
	}
	checkPairOwnership(t, r)
	if !res.OK() {
		t.Fatalf("monitoring on: failures %v", res.Failures)
	}
	if res.MonitorRescues == 0 {
		t.Error("monitoring on: expected watcher-initiated rescues")
	}

	r, pos = build(false)
	res, err = r.Run(jobs(pos))
	if err != nil {
		t.Fatal(err)
	}
	checkPairOwnership(t, r)
	if res.OK() {
		t.Error("monitoring off with failed initiators should drop jobs")
	}
}

func TestScenario3DeadVehicleRescuedByMonitoring(t *testing.T) {
	arena := grid.MustNew(4, 4)
	r := mustRunner(t, Options{
		Arena: arena, CubeSide: 4, Capacity: 10, Seed: 9, Monitoring: true,
	})
	pos := r.Partition().Pairs()[0].ServicePos()
	// Kill the pair's active vehicle right before arrival 3.
	r2 := mustRunner(t, Options{
		Arena: arena, CubeSide: 4, Capacity: 10, Seed: 9, Monitoring: true,
		Failure: &FailureModel{DeadBeforeArrival: map[grid.Point]int{pos: 3}},
	})
	jobs := make([]grid.Point, 8)
	for i := range jobs {
		jobs[i] = pos
	}
	res, err := r.Run(demand.NewSequence(jobs))
	if err != nil {
		t.Fatal(err)
	}
	checkPairOwnership(t, r)
	if !res.OK() {
		t.Fatalf("baseline run failed: %v", res.Failures)
	}
	res2, err := r2.Run(demand.NewSequence(jobs))
	if err != nil {
		t.Fatal(err)
	}
	checkPairOwnership(t, r2)
	// The job arriving while the vehicle is dead is lost (arrival 3), but
	// monitoring must recruit a replacement so later jobs succeed.
	if len(res2.Failures) != 1 {
		t.Fatalf("expected exactly the in-gap job to fail, got %v", res2.Failures)
	}
	if res2.Served != 7 {
		t.Errorf("served %d of 8 with one dead vehicle", res2.Served)
	}
	if res2.MonitorRescues == 0 {
		t.Error("expected a monitor rescue for the dead vehicle")
	}
}

func TestDeadBeforeArrivalUnknownCell(t *testing.T) {
	r := mustRunner(t, Options{
		Arena: grid.MustNew(2, 2), CubeSide: 2, Capacity: 5, Seed: 1,
		Failure: &FailureModel{DeadBeforeArrival: map[grid.Point]int{grid.P(9, 9): 0}},
	})
	if _, err := r.Run(demand.NewSequence([]grid.Point{grid.P(0, 0)})); err == nil {
		t.Error("unknown dead cell should error")
	}
}

func TestMinCapacityBracketsTheoremBound(t *testing.T) {
	arena := grid.MustNew(6, 6)
	rng := rand.New(rand.NewSource(23))
	b, err := grid.NewBox(2, grid.P(1, 1), grid.P(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	m, err := demand.Uniform(rng, b, 120)
	if err != nil {
		t.Fatal(err)
	}
	char, err := offline.OmegaC(m, arena)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := demand.SequenceOf(m, demand.OrderShuffled, rng)
	if err != nil {
		t.Fatal(err)
	}
	won, err := MinCapacity(seq, Options{Arena: arena, CubeSide: char.Side, Seed: 31}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	theorem := float64(4*9+2) * math.Max(char.Omega, 1)
	if won > theorem*1.05 {
		t.Errorf("measured Won %v exceeds theorem bound %v", won, theorem)
	}
	if won < 2 {
		t.Errorf("Won %v below the trivial serve cost", won)
	}
}

func TestWorkStateString(t *testing.T) {
	for _, s := range []WorkState{Idle, Active, Done, Dead, WorkState(9)} {
		if s.String() == "" {
			t.Errorf("empty string for %d", int(s))
		}
	}
}

// TestRunnerSingleUse is the regression test for the latent reuse bug: a
// second Run without Reset used to silently continue from the consumed
// dead-event cursor and accumulated counters; now it is an explicit error.
func TestRunnerSingleUse(t *testing.T) {
	arena := grid.MustNew(4, 4)
	r := mustRunner(t, Options{Arena: arena, CubeSide: 4, Capacity: 10, Seed: 1})
	seq := demand.NewSequence([]grid.Point{r.Partition().Pairs()[0].ServicePos()})
	if _, err := r.Run(seq); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(seq); !errors.Is(err, ErrRunnerUsed) {
		t.Fatalf("second Run: got %v, want ErrRunnerUsed", err)
	}
	// Reset re-arms it.
	if err := r.Reset(10, 1); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	checkPairOwnership(t, r)
	if !res.OK() || res.Served != 1 {
		t.Fatalf("post-reset run: %+v", res)
	}
}

// TestResetValidation rejects non-positive and non-finite capacities, like
// NewRunner.
func TestResetValidation(t *testing.T) {
	r := mustRunner(t, Options{Arena: grid.MustNew(2, 2), CubeSide: 2, Capacity: 5, Seed: 1})
	for _, c := range []float64{0, -3, math.NaN(), math.Inf(1)} {
		if err := r.Reset(c, 1); err == nil {
			t.Errorf("capacity %v should fail", c)
		}
	}
}

// TestResetClearsWatcherState pins that arming clears the watchers' round
// state. An episode that errs between its heartbeat and check waves leaves
// beacons heard and complaints filed; a reset runner must not act on them.
func TestResetClearsWatcherState(t *testing.T) {
	opts := eventfulOptions()
	r := mustRunner(t, opts)
	for i := range r.vehicles {
		r.vehicles[i].heard, r.vehicles[i].accused = true, true
	}
	if err := r.ResetEpisode(opts); err != nil {
		t.Fatal(err)
	}
	got, err := r.Run(failureJobs())
	if err != nil {
		t.Fatal(err)
	}
	want, err := runOwned(t, opts, failureJobs())
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "reset after a cut monitor round", want, got)
}

// TestResetDoesNotClobberPriorResult guards the aliasing hazard: a Result's
// failure list must survive the runner being reset and re-run.
func TestResetDoesNotClobberPriorResult(t *testing.T) {
	arena := grid.MustNew(2, 2)
	r := mustRunner(t, Options{Arena: arena, CubeSide: 2, Capacity: 4, Seed: 3})
	pos := r.Partition().Pairs()[0].ServicePos()
	jobs := make([]grid.Point, 50)
	for i := range jobs {
		jobs[i] = pos
	}
	res, err := r.Run(demand.NewSequence(jobs))
	if err != nil {
		t.Fatal(err)
	}
	checkPairOwnership(t, r)
	if res.OK() {
		t.Fatal("overload run should fail")
	}
	nFail := len(res.Failures)
	first := res.Failures[0]
	if err := r.Reset(4, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(demand.NewSequence(jobs)); err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != nFail || res.Failures[0] != first {
		t.Error("reset/re-run mutated the previous Result's failure list")
	}
}

// TestSharedPartitionValidation pins the Options.Partition contract: the
// prebuilt geometry must match the arena and the requested cube side.
func TestSharedPartitionValidation(t *testing.T) {
	arena := grid.MustNew(4, 4)
	part, err := NewPartition(arena, 2)
	if err != nil {
		t.Fatal(err)
	}
	if part.arena != arena || part.cubeSide != 2 {
		t.Fatalf("partition: arena %p side %d", part.arena, part.cubeSide)
	}
	other := grid.MustNew(4, 4)
	if _, err := NewRunner(Options{Arena: other, Partition: part, Capacity: 5}); err == nil {
		t.Error("partition built for a different arena should fail")
	}
	if _, err := NewRunner(Options{Arena: arena, CubeSide: 4, Partition: part, Capacity: 5}); err == nil {
		t.Error("cube-side mismatch should fail")
	}
	// CubeSide 0 defers entirely to the partition.
	r, err := NewRunner(Options{Arena: arena, Partition: part, Capacity: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Partition() != part {
		t.Error("runner should adopt the shared partition")
	}
}

// TestFailedRelocationIsNotALostArrival pins that Result.Failures also
// holds Phase II relocations: the one arrival is served and exhausts its
// server, whose recruit cannot afford the walk to the pair. Served +
// len(Failures) then exceeds the arrivals, and OK is false.
func TestFailedRelocationIsNotALostArrival(t *testing.T) {
	r := mustRunner(t, Options{Arena: grid.MustNew(3, 4), CubeSide: 4, Capacity: 2, Seed: 3})
	res, err := r.Run(demand.NewSequence([]grid.Point{grid.P(1, 3)}))
	if err != nil {
		t.Fatal(err)
	}
	checkPairOwnership(t, r)
	want := []Failure{{Pos: grid.P(1, 3), Reason: "recruit (0,1) cannot afford move of 3"}}
	if res.Served != 1 || !slices.Equal(res.Failures, want) || res.OK() {
		t.Fatalf("served %d, failures %v, OK %v; want 1 served, failures %v, not OK",
			res.Served, res.Failures, res.OK(), want)
	}
}

// checkReasons compares the three Failure.Reason functions with the
// fmt.Sprintf forms they replace.
func checkReasons(t *testing.T, home grid.Point, state WorkState, used, walk float64) {
	t.Helper()
	for _, c := range []struct{ got, want string }{
		{stateReason(home, state), fmt.Sprintf("vehicle %v in state %v", home, state)},
		{energyReason(home, used), fmt.Sprintf("vehicle %v out of energy (%.1f used)", home, used)},
		{moveReason(home, walk), fmt.Sprintf("recruit %v cannot afford move of %v", home, walk)},
	} {
		if c.got != c.want {
			t.Errorf("reason %q, fmt renders %q", c.got, c.want)
		}
	}
}

func TestFailureReasonsMatchSprintf(t *testing.T) {
	const big = math.MaxInt32
	homes := []grid.Point{
		grid.P(3), grid.P(2, 5), grid.P(-1, 4, -7), grid.P(0, 0, 0, 9),
		grid.P(big, -big, big, -big), grid.P(-big-1, 0, 0, 1),
	}
	energies := []float64{0, 0.05, 0.25, 0.35, 1, 2.5, 3.75, 6.25, 99.95, 1e6, 123456789.05, 1e21, 1e-7}
	for i, home := range homes {
		for j, e := range energies {
			state := []WorkState{Idle, Active, Done, Dead, WorkState(9)}[(i+j)%5]
			checkReasons(t, home, state, e, e)
		}
	}
}

func FuzzFailureReason(f *testing.F) {
	f.Add(int32(2), int32(5), int32(0), int32(0), uint8(Dead), 0.05, 2.5)
	f.Add(int32(-1), int32(4), int32(-7), int32(0), uint8(Done), 99.95, 6.25)
	f.Add(int32(math.MaxInt32), int32(math.MinInt32), int32(0), int32(1), uint8(0), 1e21, 1e-7)
	f.Fuzz(func(t *testing.T, x, y, z, w int32, state uint8, used, walk float64) {
		if math.IsNaN(used) || math.IsInf(used, 0) || math.IsNaN(walk) || math.IsInf(walk, 0) {
			t.Skip("energies are finite")
		}
		checkReasons(t, grid.Point{x, y, z, w}, WorkState(state), used, walk)
	})
}

// TestFailureReasonAllocs pins that each reason costs its one string.
func TestFailureReasonAllocs(t *testing.T) {
	home := grid.P(math.MinInt32, math.MinInt32, math.MinInt32, math.MinInt32)
	for name, build := range map[string]func() string{
		"state":  func() string { return stateReason(home, Active) },
		"energy": func() string { return energyReason(home, 123456.75) },
		"move":   func() string { return moveReason(home, -1.2345678901234567e-300) },
	} {
		if got := testing.AllocsPerRun(10, func() { _ = build() }); got != 1 {
			t.Errorf("%s reason allocated %.0f objects, want 1", name, got)
		}
	}
}
