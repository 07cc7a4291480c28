package bench

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"repro/internal/online"
)

// span is one timed call, recorded by the benchmark around a call into a
// layer. An operation's root span has Parent -1 and the workload's name.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps one client's spans and counters in memory. Its methods do
// nothing on a nil tracer, so an untraced operation pays one nil check per
// span.
type tracer struct {
	epoch  time.Time
	op     int
	spans  []span
	open   []int // indices of the spans not yet ended, innermost last
	counts map[string]float64
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, counts: make(map[string]float64)}
}

// begin opens a span as a child of the innermost open span and returns its
// index; end names and closes it.
func (t *tracer) begin() int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int, name string) {
	if t == nil {
		return
	}
	t.spans[id].Name = name
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// addEpisode counts one online episode's outcome.
func (t *tracer) addEpisode(res *online.Result, arrivals int) {
	if t == nil {
		return
	}
	t.add("online.arrivals", float64(arrivals))
	t.add("online.served", float64(res.Served))
	t.add("online.searches", float64(res.Searches))
	t.add("online.search_failures", float64(res.SearchFailures))
	t.add("online.replacements", float64(res.Replacements))
	t.add("online.rescues", float64(res.MonitorRescues+res.EvidenceRescues))
	t.add("sim.msgs", float64(res.Messages))
}

// merge joins the clients' spans, renumbering IDs to be unique, and sums
// their counters.
func merge(ts []*tracer) ([]span, map[string]float64) {
	var spans []span
	counts := make(map[string]float64)
	for _, t := range ts {
		off := len(spans)
		for _, s := range t.spans {
			s.ID += off
			if s.Parent >= 0 {
				s.Parent += off
			}
			spans = append(spans, s)
		}
		for k, v := range t.counts {
			counts[k] += v
		}
	}
	return spans, counts
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics turns the traced phase's spans and counters into per-layer
// metrics. Span times are inclusive milliseconds per operation: a span
// named "online.run" gives online.run_ms.
func layerMetrics(spans []span, counts map[string]float64, ops int) map[string]float64 {
	m := make(map[string]float64)
	if ops == 0 {
		return m
	}
	n := float64(ops)
	spanCount := make(map[string]float64)
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		m[s.Name+"_ms"] += float64(s.End-s.Start) / 1e6 / n
		spanCount[s.Name]++
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["online.builds_per_op"] = spanCount["online.build"] / n
	m["online.resets_per_op"] = spanCount["online.reset"] / n
	m["online.searches_per_op"] = counts["online.searches"] / n
	m["online.search_success_ratio"] = ratio(counts["online.searches"]-counts["online.search_failures"], counts["online.searches"])
	m["online.replacements_per_op"] = counts["online.replacements"] / n
	m["online.rescues_per_op"] = counts["online.rescues"] / n
	m["online.served_frac"] = ratio(counts["online.served"], counts["online.arrivals"])
	m["sim.msgs_per_op"] = counts["sim.msgs"] / n
	m["sim.msgs_per_s"] = ratio(counts["sim.msgs"], m["online.run_ms"]*n/1e3)
	m["sweep.pool_builds"] = counts["sweep.pool_builds"]
	m["sweep.pool_resets"] = counts["sweep.pool_resets"]
	m["trace.spans_per_op"] = float64(len(spans)) / n
	return m
}
