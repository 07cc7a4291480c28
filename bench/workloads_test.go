package bench

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// smoke builds w for seed with at most four inputs, runs them untraced and
// then again traced, and returns the digest of their first results. Every
// traced operation must reproduce the untraced result of its input, so a
// workload that decomposes a facade call is checked against the facade.
func smoke(t *testing.T, w *Workload, seed int64) (uint64, map[string]float64) {
	t.Helper()
	n := min(4, w.Inputs)
	small := *w
	small.Inputs = n
	inst, err := small.setup(seed, n)
	if err != nil {
		t.Fatal(err)
	}
	tl := &tally{}
	s := start(&small, inst, tl)
	defer s.stop()
	s.batch(n, nil)
	epoch := time.Now()
	tracers := make([]*tracer, w.Clients)
	for c := range tracers {
		tracers[c] = newTracer(epoch)
	}
	s.tracers = tracers
	s.batch(n, nil)
	s.tracers = nil
	if tl.failed != 0 || tl.attempted != 2*n {
		t.Fatalf("%d of %d ops failed: %v", tl.failed, tl.attempted, tl.firstErr)
	}
	h := newHash()
	for k := range n {
		h.u64(s.want[k])
	}
	spans, counts := merge(tracers)
	return uint64(h), layerMetrics(spans, counts, n)
}

func TestWorkloadsSmoke(t *testing.T) {
	// The span each workload's traced operation must spend time in.
	layer := map[string]string{
		"offline-plan":      "offline.schedule_ms",
		"exact-bound":       "lpchar.omega_star_ms",
		"episode-sweep":     "online.run_ms",
		"won-search":        "online.partition_ms",
		"monitored-sharded": "online.run_ms",
		"experiments-quick": "experiments.E15_ms",
	}
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			d1, m := smoke(t, w, 7)
			d2, _ := smoke(t, w, 7)
			if d1 != d2 {
				t.Errorf("digests %016x and %016x differ between two runs of seed 7", d1, d2)
			}
			if m[layer[w.Name]] <= 0 {
				t.Errorf("%s = %v, want time spent there", layer[w.Name], m[layer[w.Name]])
			}
		})
	}
}

// TestBatchesTileInputs checks the rule measure and perPass rely on: whole
// batches make whole passes through the inputs.
func TestBatchesTileInputs(t *testing.T) {
	for _, w := range Workloads {
		if w.Inputs%w.Batch != 0 && w.Batch%w.Inputs != 0 {
			t.Errorf("%s: batch %d and %d inputs do not tile", w.Name, w.Batch, w.Inputs)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, at the root of the repository, in
// step with the definitions in this package.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if got := spec.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d = %+v, want %s: %s", i, got, w.Name, w.Why)
		}
	}
	if len(spec.EndToEnd) != len(EndToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(spec.EndToEnd), len(EndToEnd))
	}
	for i, d := range EndToEnd {
		if got := spec.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit ||
			got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d = %+v, want %+v", i, got, d)
		}
	}
	if len(spec.PerLayer) != len(PerLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(spec.PerLayer), len(PerLayer))
	}
	for i, d := range PerLayer {
		if got := spec.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d = %+v, want %+v", i, got, d)
		}
	}
}
