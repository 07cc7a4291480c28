package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

// Record is everything one cmvrpbench run measured, with the host it ran on.
type Record struct {
	Host       string    `json:"host"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Go         string    `json:"go"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Trace      bool      `json:"trace"`
	Results    []*Result `json:"results"`
}

// ReadRecord reads a record written by cmvrpbench -out.
func ReadRecord(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func (r *Record) result(workload string) *Result {
	for _, res := range r.Results {
		if res.Workload == workload {
			return res
		}
	}
	return nil
}

// Check lists every way two runs of the same code at the same seed differ
// where they must not: a workload missing from one, a different or
// incomplete digest, or a failed operation. An empty list means they agree.
func Check(a, b *Record) []string {
	var problems []string
	if a.Seed != b.Seed {
		problems = append(problems, fmt.Sprintf("seeds differ: %d and %d", a.Seed, b.Seed))
	}
	for _, ra := range a.Results {
		rb := b.result(ra.Workload)
		switch {
		case rb == nil:
			problems = append(problems, ra.Workload+": missing from the second run")
			continue
		case ra.Digest == "incomplete" || ra.Digest != rb.Digest:
			problems = append(problems, fmt.Sprintf("%s: digests %s and %s", ra.Workload, ra.Digest, rb.Digest))
		}
		for i, r := range []*Result{ra, rb} {
			if r.Failed != 0 {
				problems = append(problems, fmt.Sprintf("%s: run %d failed %d of %d ops: %s",
					r.Workload, i+1, r.Failed, r.Attempted, r.FirstError))
			}
		}
	}
	for _, rb := range b.Results {
		if a.result(rb.Workload) == nil {
			problems = append(problems, rb.Workload+": missing from the first run")
		}
	}
	return problems
}

// Verdicts of Compare.
const (
	Improved   = "improved"
	Unchanged  = "unchanged"
	Regressed  = "regressed"
	Unresolved = "unresolved"
)

// Row is Compare's finding for one (workload, metric) pair.
type Row struct {
	Workload, Metric string
	// Base and Change are the first quartile, median and third quartile of
	// each side's runs.
	Base, Change [3]float64
	// Wins counts the pairs, base run i against change run i, in which the
	// change reads better; ties count for neither.
	Wins, Pairs int
	// Verdict is empty for a metric that is reported but not gated.
	Verdict string
}

// Compare compares every end-to-end metric of every workload between the
// runs of a base and of a change, with runs paired by position. The gated
// metrics and failed_frac get a verdict; the reported timings get their
// quartiles and pair wins only.
func Compare(base, change []*Record) []Row {
	gated := append(slices.Clone(EndToEnd), failedFrac)
	var rows []Row
	for _, w := range Workloads {
		for _, def := range slices.Concat(gated, Reported) {
			b, c := values(base, w.Name, def.Name), values(change, w.Name, def.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			v, wins, pairs := verdict(def, b, c)
			if !slices.Contains(gated, def) {
				v = ""
			}
			rows = append(rows, Row{
				Workload: w.Name, Metric: def.Name,
				Base: summary(b), Change: summary(c),
				Wins: wins, Pairs: pairs, Verdict: v,
			})
		}
	}
	return rows
}

func values(records []*Record, workload, metric string) []float64 {
	var xs []float64
	for _, r := range records {
		res := r.result(workload)
		if res == nil {
			continue
		}
		if metric == failedFrac.Name {
			xs = append(xs, res.FailedFrac())
		} else if v, ok := res.Metrics[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

func summary(xs []float64) [3]float64 {
	q1, q3 := quartiles(xs)
	return [3]float64{q1, median(xs), q3}
}

// verdict applies the A/B rules: a gain needs the change to win at least
// nine tenths of the pairs and the medians to differ by more than the
// base's quartile spread; a spread wider than the bound leaves the metric
// unresolved unless every change run reads better than every base run; a
// median worse by more than the bound is a regression. A metric with a
// bound of 0 (failed_frac, lower is better) regresses when any change run
// reads higher than every base run.
func verdict(def Metric, base, change []float64) (v string, wins, pairs int) {
	better := func(a, b float64) bool {
		if def.Better == "higher" {
			return a > b
		}
		return a < b
	}
	pairs = min(len(base), len(change))
	for i := range pairs {
		if better(change[i], base[i]) {
			wins++
		}
	}
	bm, cm := median(base), median(change)
	q1, q3 := quartiles(base)
	worse := cm - bm
	allBetter := slices.Max(change) < slices.Min(base)
	if def.Better == "higher" {
		worse = bm - cm
		allBetter = slices.Min(change) > slices.Max(base)
	}
	switch {
	case better(cm, bm) && 10*wins >= 9*pairs && math.Abs(cm-bm) > q3-q1:
		return Improved, wins, pairs
	case def.Bound == 0:
		if slices.Max(change) > slices.Max(base) {
			return Regressed, wins, pairs
		}
	case max(spread(base), spread(change)) > def.Bound && !allBetter:
		return Unresolved, wins, pairs
	case worse > def.Bound*math.Abs(bm):
		return Regressed, wins, pairs
	}
	return Unchanged, wins, pairs
}
