// Command cmvrpbench runs the repository's end-to-end benchmark.
//
//	cmvrpbench [-workload W|all] [-seed N] [-seconds S] [-trace 0|1] [-out run.json]
//	cmvrpbench -check a.json b.json
//	cmvrpbench compare base/*.json change/*.json
//
// A run prints "workload metric value unit" for every metric, then, as its
// last line, one JSON object with the keys correct, attempted, failed and
// metrics. -trace 1 reports the per-layer metrics instead of the end-to-end
// ones and writes trace.jsonl and cpu.pprof under .bench_build/trace/<workload>.
// -check exits 1 unless two records of the same seed agree on every digest
// and failed nothing. compare takes the runs of two directories, the first
// named being the base, and prints a verdict for every workload and
// end-to-end metric. Run it from a checkout root through bench/run.sh, which
// builds it first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"

	"repro/bench"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed the workloads' inputs are built from")
	seconds := flag.Float64("seconds", 10, "length of each workload's timed phase")
	trace := flag.Int("trace", 0, "1 for the traced run, which reports the per-layer metrics")
	out := flag.String("out", "", "also write the whole run as JSON to this file")
	check := flag.Bool("check", false, "check two -out files of one seed for identical digests and no failures")
	flag.Parse()
	if *check {
		os.Exit(checkRuns(flag.Args()))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds %v: want a positive length", *seconds))
	}
	workloads := bench.Workloads
	if *workload != "all" {
		w, ok := bench.Lookup(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		workloads = []*bench.Workload{w}
	}

	runtime.GOMAXPROCS(runtime.NumCPU())
	host, _ := os.Hostname()
	rec := &bench.Record{
		Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
	}
	fmt.Printf("# host=%s nproc=%d gomaxprocs=%d go=%s seed=%d seconds=%g trace=%d\n",
		rec.Host, rec.NProc, rec.GOMAXPROCS, rec.Go, rec.Seed, rec.Seconds, *trace)
	defs, gated := slices.Concat(bench.EndToEnd, bench.Reported), bench.EndToEnd
	if rec.Trace {
		defs, gated = bench.PerLayer, bench.PerLayer
	}
	opts := bench.Options{Seed: *seed, Seconds: *seconds, Trace: rec.Trace,
		OutDir: filepath.Join(".bench_build", "trace")}
	for _, w := range workloads {
		res, err := bench.Run(w, opts)
		if err != nil {
			fatal(err)
		}
		rec.Results = append(rec.Results, res)
		if w.SeedFree {
			fmt.Printf("# %s: inputs are fixed, -seed does not apply\n", w.Name)
		}
		if w.Procs > 0 {
			fmt.Printf("# %s: gomaxprocs=%d while it runs\n", w.Name, w.Procs)
		}
		for _, d := range defs {
			fmt.Printf("%s %s %s %s\n", w.Name, d.Name, num(res.Metrics[d.Name].Value), d.Unit)
		}
		fmt.Printf("%s failed_frac %s ratio\n", w.Name, num(res.FailedFrac()))
		fmt.Printf("%s attempted %d count\n", w.Name, res.Attempted)
		fmt.Printf("%s digest %s fnv64\n", w.Name, res.Digest)
		if rec.Trace {
			fmt.Printf("# %s: spans and profile in %s\n", w.Name, filepath.Join(opts.OutDir, w.Name))
		}
		if res.FirstError != "" {
			fmt.Fprintf(os.Stderr, "%s: %d of %d ops failed; first: %s\n",
				w.Name, res.Failed, res.Attempted, res.FirstError)
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	printSummary(rec, gated, len(workloads) > 1)
}

// printSummary prints the last line: one JSON object over every workload
// run, with the gated metrics. Several workloads' metrics are keyed
// "<workload>/<metric>".
func printSummary(rec *bench.Record, gated []bench.Metric, prefixed bool) {
	type summary struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]bench.Value `json:"metrics"`
	}
	s := summary{Correct: true, Metrics: make(map[string]bench.Value)}
	for _, res := range rec.Results {
		s.Attempted += res.Attempted
		s.Failed += res.Failed
		if res.Failed != 0 || res.Digest == "incomplete" {
			s.Correct = false
		}
		for _, d := range gated {
			name := d.Name
			if prefixed {
				name = res.Workload + "/" + name
			}
			s.Metrics[name] = res.Metrics[d.Name]
		}
	}
	data, err := json.Marshal(s)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}

func checkRuns(paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "usage: cmvrpbench -check a.json b.json")
		return 2
	}
	a, err := bench.ReadRecord(paths[0])
	if err != nil {
		fatal(err)
	}
	b, err := bench.ReadRecord(paths[1])
	if err != nil {
		fatal(err)
	}
	problems := bench.Check(a, b)
	for _, p := range problems {
		fmt.Println("FAIL", p)
	}
	if len(problems) > 0 {
		return 1
	}
	for _, r := range a.Results {
		fmt.Printf("ok %s digest %s\n", r.Workload, r.Digest)
	}
	return 0
}

// compare groups the record files by directory: the first directory named
// holds the base runs, the second the change runs, each paired by sorted
// file name.
func compare(paths []string) int {
	var dirs []string
	byDir := make(map[string][]string)
	for _, p := range paths {
		d := filepath.Dir(p)
		if _, ok := byDir[d]; !ok {
			dirs = append(dirs, d)
		}
		byDir[d] = append(byDir[d], p)
	}
	if len(dirs) != 2 {
		fmt.Fprintln(os.Stderr, "usage: cmvrpbench compare base/*.json change/*.json (two directories)")
		return 2
	}
	sides := make([][]*bench.Record, 2)
	for i, d := range dirs {
		files := byDir[d]
		sort.Strings(files)
		for _, f := range files {
			r, err := bench.ReadRecord(f)
			if err != nil {
				fatal(err)
			}
			sides[i] = append(sides[i], r)
		}
	}
	fmt.Printf("# base %s (%d runs), change %s (%d runs); quartiles q1/median/q3\n",
		dirs[0], len(sides[0]), dirs[1], len(sides[1]))
	fmt.Printf("%-18s %-14s %-34s %-34s %-6s %s\n", "workload", "metric", "base", "change", "wins", "verdict")
	for _, r := range bench.Compare(sides[0], sides[1]) {
		v := r.Verdict
		if v == "" {
			v = "- (not gated)"
		}
		fmt.Printf("%-18s %-14s %-34s %-34s %-6s %s\n", r.Workload, r.Metric,
			triple(r.Base), triple(r.Change), fmt.Sprintf("%d/%d", r.Wins, r.Pairs), v)
	}
	return 0
}

func triple(q [3]float64) string {
	return fmt.Sprintf("%.4g/%.4g/%.4g", q[0], q[1], q[2])
}

func num(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cmvrpbench:", err)
	os.Exit(1)
}
