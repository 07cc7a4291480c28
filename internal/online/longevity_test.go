package online

import (
	"testing"

	"repro/internal/demand"
	"repro/internal/grid"
)

// Chapter 4 scenario 4 made concrete: vehicles with longevity p_i break
// after spending p_i * W, and only the monitoring ring keeps service alive.

func TestLongevityValidation(t *testing.T) {
	_, err := NewRunner(Options{
		Arena: grid.MustNew(4, 4), CubeSide: 4, Capacity: 10,
		Failure: &FailureModel{Longevity: map[grid.Point]float64{grid.P(0, 0): 1.5}},
	})
	if err == nil {
		t.Error("longevity > 1 should fail")
	}
}

func TestLongevityBreaksMidRun(t *testing.T) {
	arena := grid.MustNew(4, 4)
	r := mustRunner(t, Options{
		Arena: arena, CubeSide: 4, Capacity: 20, Seed: 3, Monitoring: true,
	})
	pos := r.Partition().Pairs()[0].ServicePos()
	// Same run but the serving vehicle breaks at 25% capacity (after ~5
	// jobs of cost 1).
	r2 := mustRunner(t, Options{
		Arena: arena, CubeSide: 4, Capacity: 20, Seed: 3, Monitoring: true,
		Failure: &FailureModel{Longevity: map[grid.Point]float64{pos: 0.25}},
	})
	jobs := make([]grid.Point, 12)
	for i := range jobs {
		jobs[i] = pos
	}
	res, err := r.Run(demand.NewSequence(jobs))
	if err != nil {
		t.Fatal(err)
	}
	checkPairOwnership(t, r)
	if !res.OK() || res.Replacements != 0 {
		t.Fatalf("healthy baseline: %+v", res)
	}
	res2, err := r2.Run(demand.NewSequence(jobs))
	if err != nil {
		t.Fatal(err)
	}
	checkPairOwnership(t, r2)
	// The breaking vehicle serves its last job, then the watcher recruits.
	if !res2.OK() {
		t.Fatalf("longevity run failures: %v", res2.Failures)
	}
	if res2.MonitorRescues == 0 {
		t.Error("expected a monitor rescue after the breakdown")
	}
	if res2.Replacements == 0 {
		t.Error("expected a replacement for the broken vehicle")
	}
}

func TestLongevityZeroBrokenFromStart(t *testing.T) {
	arena := grid.MustNew(4, 4)
	r := mustRunner(t, Options{
		Arena: arena, CubeSide: 4, Capacity: 20, Seed: 5,
		Failure: &FailureModel{Longevity: map[grid.Point]float64{grid.P(0, 0): 0}},
	})
	// The black vertex (0,0) is broken: its pair must have been activated
	// on the white partner instead.
	pairID, ok := r.Partition().PairOf(grid.P(0, 0))
	if !ok {
		t.Fatal("no pair for (0,0)")
	}
	active := r.vehicles[r.pairActive[pairID]]
	if active.home == grid.P(0, 0) || active.state != Active {
		t.Fatalf("pair activated on %v (state %v)", active.home, active.state)
	}
	// Service at the broken vertex still works via the partner.
	res, err := r.Run(demand.NewSequence([]grid.Point{grid.P(0, 0)}))
	if err != nil {
		t.Fatal(err)
	}
	checkPairOwnership(t, r)
	if !res.OK() {
		t.Fatalf("failures: %v", res.Failures)
	}
}

func TestLongevityBrokenVehicleStillRelays(t *testing.T) {
	// A ring of broken vehicles around the hot pair must not stop Phase I
	// from reaching idle candidates beyond them (dead vehicles relay).
	arena := grid.MustNew(4, 4)
	lon := map[grid.Point]float64{}
	// Break the middle band; keep the far column healthy and idle.
	for _, p := range []grid.Point{
		grid.P(1, 0), grid.P(1, 1), grid.P(1, 2), grid.P(1, 3),
		grid.P(2, 0), grid.P(2, 1), grid.P(2, 2), grid.P(2, 3),
	} {
		lon[p] = 0
	}
	r := mustRunner(t, Options{
		Arena: arena, CubeSide: 4, Capacity: 16, Seed: 7,
		Failure: &FailureModel{Longevity: lon},
	})
	pos := r.Partition().Pairs()[0].ServicePos()
	if pos.Coord(0) >= 1 && pos.Coord(0) <= 2 {
		t.Skip("pair 0 landed inside the broken band for this partition")
	}
	jobs := make([]grid.Point, 20)
	for i := range jobs {
		jobs[i] = pos
	}
	res, err := r.Run(demand.NewSequence(jobs))
	if err != nil {
		t.Fatal(err)
	}
	checkPairOwnership(t, r)
	if res.Served < 14 {
		t.Fatalf("served only %d of 20 through the broken band: %v",
			res.Served, res.Failures)
	}
	if res.Replacements == 0 {
		t.Error("expected recruits from beyond the broken band")
	}
}
