package bench

import (
	"testing"
)

func lowerBetter(bound float64) Metric {
	return Metric{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: bound}
}

// around returns ten values at center, each nudged by a small distinct step.
func around(center float64) []float64 {
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = center * (1 + float64(i%5-2)*0.002)
	}
	return xs
}

func TestVerdict(t *testing.T) {
	base := around(100)
	for _, c := range []struct {
		name         string
		def          Metric
		base, change []float64
		want         string
		wins         int
	}{
		{"same", lowerBetter(0.1), base, around(100), Unchanged, 0},
		{"all pairs faster", lowerBetter(0.1), base, around(90), Improved, 10},
		{"nine of ten pairs faster", lowerBetter(0.1), base,
			append(around(90)[:9], 101), Improved, 9},
		{"eight of ten pairs faster", lowerBetter(0.1), base,
			append(around(90)[:8], 101, 101), Unchanged, 8},
		{"slower beyond the bound", lowerBetter(0.1), base, around(115), Regressed, 0},
		{"slower within the bound", lowerBetter(0.1), base, around(105), Unchanged, 0},
		{"spread wider than the bound", lowerBetter(0.1),
			[]float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100},
			[]float64{65, 145, 75, 135, 85, 125, 95, 115, 105, 105}, Unresolved, 0},
		{"higher is better", Metric{Name: "ops_per_s", Better: "higher", Bound: 0.1},
			base, around(85), Regressed, 0},
		{"any failure is a regression", Metric{Name: "failed_frac", Better: "lower"},
			make([]float64, 10), append(make([]float64, 9), 0.001), Regressed, 0},
		{"no failures", Metric{Name: "failed_frac", Better: "lower"},
			make([]float64, 10), make([]float64, 10), Unchanged, 0},
	} {
		got, wins, pairs := verdict(c.def, c.base, c.change)
		if got != c.want || wins != c.wins || pairs != 10 {
			t.Errorf("%s: verdict %s with %d/%d wins, want %s with %d/10",
				c.name, got, wins, pairs, c.want, c.wins)
		}
	}
}

func TestCompareJudgesOnlyGatedMetrics(t *testing.T) {
	run := func(allocs, rate float64) *Record {
		return &Record{Results: []*Result{{
			Workload: "offline-plan", Attempted: 100, Digest: "00ab",
			Metrics: map[string]Value{
				"allocs_per_op": {allocs, "count"},
				"ops_per_s":     {rate, "op/s"},
			},
		}}}
	}
	var base, change []*Record
	for i := range 10 {
		base = append(base, run(100, 50+float64(i)))
		change = append(change, run(110, 5+float64(i)))
	}
	verdicts := make(map[string]string)
	for _, r := range Compare(base, change) {
		verdicts[r.Metric] = r.Verdict
	}
	want := map[string]string{"allocs_per_op": Regressed, "failed_frac": Unchanged, "ops_per_s": ""}
	for m, v := range want {
		if got, ok := verdicts[m]; !ok || got != v {
			t.Errorf("%s: verdict %q (row present: %v), want %q", m, got, ok, v)
		}
	}
	if len(verdicts) != len(want) {
		t.Errorf("rows for %v, want only %v", verdicts, want)
	}
}

func TestCheck(t *testing.T) {
	run := func(digest string, failed int) *Record {
		return &Record{Seed: 3, Results: []*Result{
			{Workload: "offline-plan", Attempted: 100, Failed: failed, Digest: digest},
		}}
	}
	if p := Check(run("00ab", 0), run("00ab", 0)); len(p) != 0 {
		t.Errorf("identical runs: %v", p)
	}
	for name, b := range map[string]*Record{
		"digest":     run("00ac", 0),
		"failure":    run("00ab", 1),
		"missing":    {Seed: 3},
		"other seed": {Seed: 4, Results: run("00ab", 0).Results},
	} {
		if p := Check(run("00ab", 0), b); len(p) == 0 {
			t.Errorf("%s: Check found nothing", name)
		}
	}
	if p := Check(run("incomplete", 0), run("incomplete", 0)); len(p) == 0 {
		t.Error("incomplete digests passed")
	}
}
