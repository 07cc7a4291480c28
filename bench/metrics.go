package bench

import "slices"

// Metric defines one reported metric.
type Metric struct {
	Name string
	Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is the share of the parent's median by which a gated metric may
	// get worse before a change counts as a regression.
	Bound float64
}

// EndToEnd lists the end-to-end metrics BENCHMARK.json gates: allocations,
// allocated bytes and retained heap, which repeat from seed to seed within a
// third of their bounds, and set-up time, which moves with the host's speed
// and so has the widest bound. README.md says why the operation timings are
// reported but not gated.
var EndToEnd = []Metric{
	{"allocs_per_op", "count", "lower", 0.02},
	{"bytes_per_op", "B", "lower", 0.05},
	{"retained_mb", "MiB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// failedFrac is the share of attempted operations that failed, computed
// from a result's attempted and failed counts. It must be 0, so any rise is
// a regression; the last line of a run carries it as "failed".
var failedFrac = Metric{"failed_frac", "ratio", "lower", 0}

// Reported lists the timings every run also prints and records, which
// nothing gates: on a shared host they drift by more than their 10% bound
// from one run to the next. compare prints their quartiles and pair wins
// without a verdict.
var Reported = []Metric{
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "ops_per_s", Unit: "op/s", Better: "higher"},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "op_ms_p90", Unit: "ms", Better: "lower"},
}

// experimentIDs are the tables experiments.All builds, in order.
var experimentIDs = []string{
	"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
	"E9", "E10", "E11", "E12", "E13", "E14", "E15",
}

// cpuLayers are the internal packages a CPU sample is attributed to by
// name; other internal packages count as cpu.other.
var cpuLayers = []string{
	"grid", "demand", "offline", "lpchar", "flow", "simplex", "sim", "diffuse",
	"gossip", "online", "sweep", "experiments", "broken", "transfer", "baseline",
}

// PerLayer lists the metrics of a traced run; every workload reports all of
// them, with 0 where the workload does no such work. Times are inclusive
// milliseconds per operation, counts are per operation unless named as
// totals, and cpu.* are shares of the traced half's CPU samples.
var PerLayer = perLayer()

func perLayer() []Metric {
	ms := func(name string) Metric { return Metric{Name: name, Unit: "ms", Better: "lower"} }
	count := func(name string) Metric { return Metric{Name: name, Unit: "count", Better: "lower"} }
	ratio := func(name string) Metric { return Metric{Name: name, Unit: "ratio", Better: "higher"} }
	share := func(name string) Metric { return Metric{Name: name, Unit: "ratio", Better: "lower"} }
	defs := []Metric{
		ms("offline.dense_ms"), ms("offline.omega_c_ms"), ms("offline.alg1_ms"),
		ms("offline.schedule_ms"), ms("offline.verify_ms"),
		ms("lpchar.omega_star_ms"),
		ms("online.partition_ms"), ms("online.build_ms"), ms("online.reset_ms"),
		ms("online.run_ms"), ms("online.min_capacity_ms"),
		count("online.builds_per_op"), count("online.resets_per_op"),
		count("online.searches_per_op"), ratio("online.search_success_ratio"),
		count("online.replacements_per_op"), count("online.rescues_per_op"),
		ratio("online.served_frac"),
		count("sim.msgs_per_op"), {Name: "sim.msgs_per_s", Unit: "1/s", Better: "higher"},
		count("sweep.pool_builds"), count("sweep.pool_resets"), ratio("sweep.busy_frac"),
	}
	for _, id := range experimentIDs {
		defs = append(defs, ms("experiments."+id+"_ms"))
	}
	defs = append(defs, share("trace.overhead_frac"), count("trace.spans_per_op"))
	for _, l := range slices.Concat(cpuLayers, []string{"cmvrp", "bench", "runtime", "stdlib", "other"}) {
		defs = append(defs, share("cpu."+l))
	}
	return append(defs, Metric{Name: "cpu.samples", Unit: "count", Better: "higher"})
}
