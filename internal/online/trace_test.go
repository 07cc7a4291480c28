package online

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/demand"
	"repro/internal/grid"
)

// SliceTracer accumulates events in memory.
type SliceTracer struct {
	Events []Event
}

var _ Tracer = (*SliceTracer)(nil)

// Emit implements Tracer.
func (s *SliceTracer) Emit(e Event) { s.Events = append(s.Events, e) }

// Count returns how many events of the given kind were recorded.
func (s *SliceTracer) Count(kind EventKind) int {
	n := 0
	for _, e := range s.Events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

func TestTraceCapturesLifecycle(t *testing.T) {
	arena := grid.MustNew(4, 4)
	tracer := &SliceTracer{}
	r := mustRunner(t, Options{
		Arena: arena, CubeSide: 4, Capacity: 10, Seed: 7, Tracer: tracer,
	})
	pos := r.Partition().Pairs()[0].ServicePos()
	jobs := make([]grid.Point, 20)
	for i := range jobs {
		jobs[i] = pos
	}
	res, err := r.Run(demand.NewSequence(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("failures: %v", res.Failures)
	}
	if got := tracer.Count(EventServe); int64(got) != res.Served {
		t.Errorf("serve events %d != served %d", got, res.Served)
	}
	if got := tracer.Count(EventMove); int64(got) != res.Replacements {
		t.Errorf("move events %d != replacements %d", got, res.Replacements)
	}
	if got := tracer.Count(EventSearch); int64(got) != res.Searches {
		t.Errorf("search events %d != searches %d", got, res.Searches)
	}
	if tracer.Count(EventDone) == 0 {
		t.Error("expected done events")
	}
	// Events must carry increasing arrival indices.
	prev := -1
	for _, e := range tracer.Events {
		if e.Arrival < prev {
			t.Fatalf("arrival index regressed: %v after %d", e, prev)
		}
		prev = e.Arrival
	}
}

func TestTraceFailureEvents(t *testing.T) {
	arena := grid.MustNew(2, 2)
	tracer := &SliceTracer{}
	r := mustRunner(t, Options{
		Arena: arena, CubeSide: 2, Capacity: 3, Seed: 7, Tracer: tracer,
	})
	pos := r.Partition().Pairs()[0].ServicePos()
	jobs := make([]grid.Point, 40)
	for i := range jobs {
		jobs[i] = pos
	}
	res, err := r.Run(demand.NewSequence(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("overload should fail")
	}
	if got := tracer.Count(EventFailure); got != len(res.Failures) {
		t.Errorf("failure events %d != failures %d", got, len(res.Failures))
	}
}

func TestWriterTracerRendersLines(t *testing.T) {
	var buf bytes.Buffer
	tracer := &WriterTracer{W: &buf}
	arena := grid.MustNew(2, 2)
	r := mustRunner(t, Options{
		Arena: arena, CubeSide: 2, Capacity: 10, Seed: 1, Tracer: tracer,
	})
	pos := r.Partition().Pairs()[0].ServicePos()
	if _, err := r.Run(demand.NewSequence([]grid.Point{pos})); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "serve") || !strings.Contains(out, "vehicle=") {
		t.Errorf("unexpected trace output: %q", out)
	}
}

func TestEventKindString(t *testing.T) {
	kinds := []EventKind{EventServe, EventDone, EventDead, EventSearch,
		EventSearchFail, EventMove, EventRescue, EventFailure, EventKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("empty string for %d", int(k))
		}
	}
}

// traceEpisode is one fixed-seed episode of the trace golden.
type traceEpisode struct {
	name string
	opts Options
	jobs []grid.Point
}

// hotJobs returns n arrivals at p.
func hotJobs(p grid.Point, n int) []grid.Point {
	jobs := make([]grid.Point, n)
	for i := range jobs {
		jobs[i] = p
	}
	return jobs
}

// goldenTraceEpisodes are fixed-seed episodes that together emit every
// EventKind, both EventDead causes (a Longevity breakdown while serving and
// on arrival from a Phase II move), both EventRescue causes (a silent pair
// and a Byzantine casualty unmasked by evidence), and all three
// Failure.Reason texts.
func goldenTraceEpisodes() []traceEpisode {
	a4 := grid.MustNew(4, 4)
	// Every vehicle but the hot pair's server wears out at 20% of its
	// capacity, and the server's distance-1 neighbours are broken from the
	// start, so the recruit walks at least 2 and breaks on arrival.
	wornRecruits := map[grid.Point]float64{}
	for i := int64(0); i < a4.Len(); i++ {
		wornRecruits[a4.PointAt(i)] = 0.2
	}
	delete(wornRecruits, grid.P(0, 0))
	wornRecruits[grid.P(0, 1)], wornRecruits[grid.P(1, 0)] = 0, 0
	return []traceEpisode{
		{"hot point", Options{Arena: a4, CubeSide: 4, Capacity: 10, Seed: 7},
			hotJobs(grid.P(0, 0), 20)},
		{"overload", Options{Arena: grid.MustNew(2, 2), CubeSide: 2, Capacity: 3, Seed: 7},
			hotJobs(grid.P(0, 0), 8)},
		{"wear-out while serving, silent rescue", Options{
			Arena: a4, CubeSide: 4, Capacity: 20, Seed: 3, Monitoring: true,
			Failure: &FailureModel{Longevity: map[grid.Point]float64{grid.P(0, 0): 0.25}},
		}, hotJobs(grid.P(0, 0), 8)},
		{"wear-out on arrival", Options{
			Arena: a4, CubeSide: 4, Capacity: 10, Seed: 3,
			Failure: &FailureModel{Longevity: wornRecruits},
		}, hotJobs(grid.P(0, 0), 10)},
		// Slow vehicles pay 1.25 per step and the cells near the hot pair
		// are broken, so the second recruit cannot afford its walk.
		{"unaffordable move", Options{
			Arena: a4, CubeSide: 4, Capacity: 4, Seed: 3,
			Fleet: &Fleet{Classes: []VehicleClass{{Name: "slow", Speed: 0.8}}},
			Failure: &FailureModel{Longevity: map[grid.Point]float64{
				grid.P(0, 1): 0, grid.P(1, 0): 0, grid.P(1, 1): 0, grid.P(0, 2): 0, grid.P(2, 0): 0,
			}},
		}, hotJobs(grid.P(0, 0), 4)},
		{"out of energy", Options{Arena: a4, CubeSide: 4, Capacity: 1.5, Seed: 3},
			hotJobs(grid.P(0, 1), 2)},
		{"byzantine evidence rescue", Options{
			Arena: grid.MustNew(6, 6), CubeSide: 6, Capacity: 20, Seed: 9, Monitoring: true,
			Failure: &FailureModel{
				DeadBeforeArrival: map[grid.Point]int{grid.P(2, 2): 2},
				Byzantine:         map[grid.Point]bool{grid.P(2, 2): true},
			},
		}, hotJobs(grid.P(2, 2), 6)},
	}
}

// teeTracer hands every event to each of its tracers in turn.
type teeTracer []Tracer

func (tt teeTracer) Emit(e Event) {
	for _, tr := range tt {
		tr.Emit(e)
	}
}

// TestGoldenTraceText pins the rendered event log byte for byte against
// testdata/golden_trace.txt, and checks that the episodes still reach every
// event kind and every detail text the log can carry.
func TestGoldenTraceText(t *testing.T) {
	var buf bytes.Buffer
	events := &SliceTracer{}
	for _, ep := range goldenTraceEpisodes() {
		fmt.Fprintf(&buf, "== %s\n", ep.name)
		opts := ep.opts
		opts.Tracer = teeTracer{&WriterTracer{W: &buf}, events}
		if _, err := mustRunner(t, opts).Run(demand.NewSequence(ep.jobs)); err != nil {
			t.Fatalf("%s: %v", ep.name, err)
		}
	}
	got := buf.String()
	want, err := os.ReadFile(filepath.Join("testdata", "golden_trace.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("trace text drifted from testdata/golden_trace.txt:\n%s", got)
	}
	kinds := map[EventKind]bool{}
	causes := map[Cause]bool{}
	for _, e := range events.Events {
		kinds[e.Kind] = true
		causes[e.Cause] = true
	}
	for k := EventServe; k <= EventFailure; k++ {
		if !kinds[k] {
			t.Errorf("no %v event in the golden episodes", k)
		}
	}
	for c := CauseServe; c <= CauseEvidence; c++ {
		if !causes[c] {
			t.Errorf("no event with cause %d in the golden episodes", c)
		}
	}
	for _, reason := range []string{" in state ", " out of energy ", " cannot afford move of "} {
		if !strings.Contains(got, reason) {
			t.Errorf("no failure reason containing %q in the golden episodes", reason)
		}
	}
}
