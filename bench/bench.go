// Package bench is the end-to-end benchmark of this repository: six
// closed-loop workloads over the offline planner, the exact LP bound, the
// online strategy and the experiment tables. An untraced run reports the
// end-to-end metrics; a traced run reports per-layer time, counts and CPU
// shares. The command is cmd/cmvrpbench; README.md has the metric and
// workload tables and the layer predictions.
//
// Every workload cycles through a fixed pool of inputs built from the seed,
// so operation i always gets input i % Inputs. The first result of each
// input is kept, and every later operation on that input must reproduce it;
// the workload's digest is an FNV-64 over those first results in input
// order.
package bench

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/sweep"
)

const (
	// setupRepeats is how many times a run builds the workload; setup_s is
	// the median, and the last build is the one measured.
	setupRepeats = 3
	// minBatches and minOps bound a timed phase from below, whatever its
	// duration: ops_per_s is a median over batches and op_ms_p90 needs 100
	// samples.
	minBatches = 20
	minOps     = 100
	// minPasses is the fewest passes through the inputs a timed phase makes.
	// The first pass still grows buffers to their high-water marks and so
	// allocates more than the later ones, and any pass may hold a batch in
	// which a sync.Pool cache missed; with three, the least of a batch place's
	// counts over the passes is almost always a pass with neither.
	minPasses = 3
	// tracedMinBatches bounds the traced batches of a traced run from below.
	tracedMinBatches = 5
	// maxStretch caps a phase at this multiple of its duration even when the
	// minimums above are not met, so a much slower commit still finishes.
	maxStretch = 6
)

// Workload is one benchmark workload: a pool of seeded inputs and the
// operation run on them by a fixed number of closed-loop clients, each of
// which sends its next operation only when the previous one returned.
type Workload struct {
	Name string
	Why  string
	// Inputs is the number of distinct inputs; operation i uses input
	// i % Inputs.
	Inputs int
	// Clients is the number of closed-loop clients.
	Clients int
	// Batch is the number of operations in one timed batch. It divides
	// Inputs or Inputs divides it, so a timed phase can end on a whole
	// number of passes through the inputs.
	Batch int
	// Warmup is the number of operations run during set-up, outside timing.
	Warmup int
	// SeedFree marks a workload whose inputs are fixed and ignore the seed.
	SeedFree bool
	// Procs, when set, is GOMAXPROCS while the workload runs, in place of
	// the number of CPUs.
	Procs int
	// setup builds the given number of inputs from seed.
	setup func(seed int64, inputs int) (*instance, error)
}

// instance is a workload built for one seed.
type instance struct {
	// serve calls client once per client, each on its own goroutine when
	// there are several, and returns when all have returned. Sweep
	// workloads hand every client its sweep.Worker.
	serve func(client func(c int, w *sweep.Worker))
	// op runs operation i, checks its output and returns a hash of it. With
	// a non-nil tracer it records a span around every call into a layer.
	op func(w *sweep.Worker, i int, tr *tracer) (uint64, error)
	// recheck, when set, runs after every batch, outside timing, and returns
	// one error per operation of the batch that failed a further check.
	recheck func() []error
}

// oneClient serves a single client on the calling goroutine.
func oneClient(client func(int, *sweep.Worker)) { client(0, nil) }

// sweepClients serves n clients as the workers of one sweep.Run, so each
// owns a sweep.Worker and its warm runner pool for the whole run.
func sweepClients(n int) func(func(int, *sweep.Worker)) {
	return func(client func(int, *sweep.Worker)) {
		// The scenario function never fails, so neither does Run.
		_, _ = sweep.Run(sweep.Config{Workers: n}, n, func(w *sweep.Worker, c int) (struct{}, error) {
			client(c, w)
			return struct{}{}, nil
		})
	}
}

// Workloads lists every workload, in the order a full run executes them.
var Workloads = []*Workload{
	offlinePlan, exactBound, episodeSweep, wonSearch, monitoredSharded, experimentsQuick,
}

// Lookup returns the workload with the given name.
func Lookup(name string) (*Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

// Options selects what one run of a workload does.
type Options struct {
	Seed int64
	// Seconds is the length of the timed phase; a traced run alternates
	// untraced and traced batches through it.
	Seconds float64
	// Trace selects the traced run, which reports the per-layer metrics and
	// writes trace.jsonl and cpu.pprof under OutDir/<workload>.
	Trace  bool
	OutDir string
}

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one workload's outcome in one run.
type Result struct {
	Workload  string `json:"workload"`
	SeedFree  bool   `json:"seed_free,omitempty"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Digest is the FNV-64 of the first result of every input, in input
	// order; two runs of one commit at one seed print the same digest.
	Digest     string           `json:"digest"`
	FirstError string           `json:"first_error,omitempty"`
	Metrics    map[string]Value `json:"metrics"`
}

// FailedFrac is the share of attempted operations that failed.
func (r *Result) FailedFrac() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// tally counts operations and failures across every session of a run.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// Run runs workload w once and returns its metrics: the end-to-end ones, or
// with o.Trace the per-layer ones.
func Run(w *Workload, o Options) (*Result, error) {
	spareOnce.Do(startSpareGoroutines)
	if w.Procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.Procs))
	}
	t := &tally{}
	var setupCPU []float64
	var s *session
	for range setupRepeats {
		if s != nil {
			s.stop()
		}
		runtime.GC()
		c0 := cpuNanos()
		inst, err := w.setup(o.Seed, w.Inputs)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		s = start(w, inst, t)
		s.batch(w.Warmup, nil)
		setupCPU = append(setupCPU, float64(cpuNanos()-c0)/1e9)
	}
	defer s.stop()

	d := time.Duration(o.Seconds * float64(time.Second))
	var metrics map[string]Value
	var err error
	if o.Trace {
		metrics, err = s.traced(d, filepath.Join(o.OutDir, w.Name))
	} else {
		metrics, err = s.untraced(d)
		if err == nil {
			metrics["setup_s"] = Value{median(setupCPU), "s"}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	res := &Result{
		Workload:  w.Name,
		SeedFree:  w.SeedFree,
		Attempted: t.attempted,
		Failed:    t.failed,
		Digest:    s.digest(),
		Metrics:   metrics,
	}
	if t.firstErr != nil {
		res.FirstError = t.firstErr.Error()
	}
	return res, nil
}

// spareGoroutines is how many goroutines a process starts and ends before it
// builds any workload. The runtime never frees a goroutine's descriptor but
// keeps it for reuse, so without spares the live heap would grow with the
// most goroutines that ever ran at once, which on experiments-quick moved
// retained_mb by up to 10% between runs.
const spareGoroutines = 64

var spareOnce sync.Once

// startSpareGoroutines holds all the spares alive at once by having them
// yield until released, since a goroutine blocked on a channel or a lock
// would leave behind a wait record that the runtime caches, which moves the
// live heap in its turn.
func startSpareGoroutines() {
	var wg sync.WaitGroup
	var release atomic.Bool
	wg.Add(spareGoroutines)
	for range spareGoroutines {
		go func() {
			defer wg.Done()
			for !release.Load() {
				runtime.Gosched()
			}
		}()
	}
	release.Store(true)
	wg.Wait()
}

// untraced measures the end-to-end metrics other than set-up time.
func (s *session) untraced(d time.Duration) (map[string]Value, error) {
	p := s.measure(d)
	p50, err := percentile(p.lat, 0.5)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(p.lat, 0.9)
	if err != nil {
		return nil, err
	}
	m := map[string]Value{
		"cpu_ms_per_op": {s.perPass(p, p.cpu, median) / 1e6, "ms"},
		"allocs_per_op": {s.perPass(p, p.mallocs, slices.Min[[]float64]), "count"},
		"bytes_per_op":  {s.perPass(p, p.bytes, slices.Min[[]float64]), "B"},
		"ops_per_s":     {batchRate(p.ops, p.secs), "op/s"},
		"op_ms_p50":     {p50, "ms"},
		"op_ms_p90":     {p90, "ms"},
	}
	m["retained_mb"] = Value{s.retainedMiB(), "MiB"}
	return m, nil
}

// retainedMiB is the live heap after forced collections, with the
// workload's inputs, pools and runners still reachable from s. The second
// collection empties sync.Pool caches, whose size depends on which input
// last grew them.
func (s *session) retainedMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(s)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// traced alternates untraced and traced batches for the timed phase, under
// a CPU profile, and returns the per-layer metrics. Alternating lets drift
// in the host's speed fall on both kinds of batch alike.
func (s *session) traced(d time.Duration, dir string) (map[string]Value, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(dir, "cpu.pprof")
	stopProfile, err := startProfile(profPath)
	if err != nil {
		return nil, err
	}
	epoch := time.Now()
	tracers := make([]*tracer, s.w.Clients)
	for c := range tracers {
		tracers[c] = newTracer(epoch)
	}
	plain, p := &phase{}, &phase{}
	for {
		el := time.Since(epoch)
		seen := len(plain.lat)+len(p.lat) >= s.w.Inputs
		if el >= maxStretch*d || (el >= d && len(p.ops) >= tracedMinBatches && seen) {
			break
		}
		s.batch(s.w.Batch, plain)
		s.tracers = tracers
		s.batch(s.w.Batch, p)
		s.tracers = nil
	}
	if err := stopProfile(); err != nil {
		return nil, err
	}

	spans, counts := merge(tracers)
	if err := writeSpans(filepath.Join(dir, "trace.jsonl"), spans); err != nil {
		return nil, err
	}
	shares, samples, err := foldProfile(profPath)
	if err != nil {
		return nil, err
	}
	ops := len(p.lat)
	m := layerMetrics(spans, counts, ops)
	m["sweep.busy_frac"] = p.busy / (float64(s.w.Clients) * p.wall)
	m["trace.overhead_frac"] = 1 - batchRate(p.ops, p.secs)/batchRate(plain.ops, plain.secs)
	for layer, share := range shares {
		m["cpu."+layer] = share
	}
	m["cpu.samples"] = float64(samples)

	out := make(map[string]Value, len(PerLayer))
	for _, def := range PerLayer {
		out[def.Name] = Value{m[def.Name], def.Unit}
	}
	return out, nil
}

// session is one built instance with its clients running, waiting for
// operations.
type session struct {
	w    *Workload
	inst *instance
	t    *tally
	// ops carries operation indices to the clients; it holds a whole batch
	// so the dispatcher never waits on a busy client.
	ops  chan int
	wg   sync.WaitGroup
	done chan struct{}
	next int
	// tracers, when set, holds one tracer per client for the current phase.
	tracers []*tracer

	// Per-batch slots, indexed by operation index minus first; written by
	// the clients, read after the batch has finished.
	first int
	lat   []float64
	hash  []uint64
	errs  []error

	// want holds the first result hash of every input.
	want []uint64
	seen []bool
}

func start(w *Workload, inst *instance, t *tally) *session {
	s := &session{
		w:    w,
		inst: inst,
		t:    t,
		ops:  make(chan int, max(w.Batch, w.Warmup)),
		done: make(chan struct{}),
		want: make([]uint64, w.Inputs),
		seen: make([]bool, w.Inputs),
	}
	go func() {
		defer close(s.done)
		inst.serve(s.client)
	}()
	return s
}

// stop ends the clients and waits until they have returned.
func (s *session) stop() {
	close(s.ops)
	<-s.done
}

func (s *session) client(c int, w *sweep.Worker) {
	for i := range s.ops {
		var tr *tracer
		if s.tracers != nil {
			tr = s.tracers[c]
			tr.op = i
		}
		root := tr.begin()
		t0 := time.Now()
		h, err := s.inst.op(w, i, tr)
		lat := time.Since(t0)
		tr.end(root, s.w.Name)
		j := i - s.first
		s.lat[j], s.hash[j], s.errs[j] = float64(lat)/1e6, h, err
		s.wg.Done()
	}
}

// batch runs the next n operations, and when p is non-nil adds their
// timings and allocations to it.
func (s *session) batch(n int, p *phase) {
	s.first = s.next
	s.next += n
	s.lat = make([]float64, n)
	s.hash = make([]uint64, n)
	s.errs = make([]error, n)

	var m0, m1 runtime.MemStats
	if p != nil {
		runtime.ReadMemStats(&m0)
	}
	c0, t0 := cpuNanos(), time.Now()
	s.wg.Add(n)
	for i := s.first; i < s.next; i++ {
		s.ops <- i
	}
	s.wg.Wait()
	wall, cpu := time.Since(t0).Seconds(), cpuNanos()-c0
	if p != nil {
		runtime.ReadMemStats(&m1)
		p.cpu = append(p.cpu, cpu)
		p.mallocs = append(p.mallocs, m1.Mallocs-m0.Mallocs)
		p.bytes = append(p.bytes, m1.TotalAlloc-m0.TotalAlloc)
		p.ops = append(p.ops, n)
		p.secs = append(p.secs, wall)
		p.wall += wall
		for _, l := range s.lat {
			p.busy += l / 1e3
		}
		p.lat = append(p.lat, s.lat...)
	}
	s.check()
}

// check counts the batch's operations and fails the ones that returned an
// error or whose result differs from the first result of the same input.
func (s *session) check() {
	for j, err := range s.errs {
		i := s.first + j
		s.t.attempted++
		if err == nil {
			k := i % s.w.Inputs
			switch {
			case !s.seen[k]:
				s.seen[k], s.want[k] = true, s.hash[j]
			case s.hash[j] != s.want[k]:
				err = fmt.Errorf("result differs from the first result of input %d", k)
			}
		}
		if err != nil {
			s.t.fail(fmt.Errorf("op %d: %w", i, err))
		}
	}
	if s.inst.recheck != nil {
		for _, err := range s.inst.recheck() {
			s.t.fail(err)
		}
	}
}

// phase accumulates the timed batches of one phase.
type phase struct {
	ops  []int     // operations per batch
	secs []float64 // wall seconds per batch
	lat  []float64 // milliseconds per operation
	// busy is the summed operation time and wall the summed batch time, in
	// seconds.
	busy, wall float64
	// cpu is each batch's process CPU time in nanoseconds, and mallocs and
	// bytes its heap allocations.
	cpu, mallocs, bytes []uint64
}

// cpuNanos returns the process's user plus system CPU time. The kernel
// leaves out time the hypervisor gave to other guests (steal), which is
// why setup_s and cpu_ms_per_op use it rather than wall time.
func cpuNanos() uint64 {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return uint64(ru.Utime.Nano() + ru.Stime.Nano())
}

// perPass returns count per operation over one pass through the inputs. A
// pass is a fixed run of batches, and the batch at one place in every pass
// holds the same inputs; each place counts with reduce over its passes, and
// the places are averaged, so every input weighs the same.
//
// Allocations take the least: once buffers have grown, a place allocates the
// same on every pass, and the extra comes only from the first pass, which
// still grows them, or from a sync.Pool miss, after which lpchar rebuilds its
// solver, megabytes at once. A miss follows the client moving to the other
// P, which the host's load decides, so a median over three passes still
// counts a miss that lands on a place the first pass grew buffers in, and
// under load even the least did; exact-bound, whose op is the solver, runs
// on one P to rule misses out (see its Procs). CPU
// time takes the median, so that it keeps the cost of the garbage
// collections, which fall in only some of a place's batches.
func (s *session) perPass(p *phase, count []uint64, reduce func([]float64) float64) float64 {
	per := max(1, s.w.Inputs/s.w.Batch)
	var sum float64
	for j := range per {
		var xs []float64
		for i := j; i < len(count); i += per {
			xs = append(xs, float64(count[i])/float64(p.ops[i]))
		}
		sum += reduce(xs)
	}
	return sum / float64(per)
}

// measure runs timed batches for at least d, minBatches batches, minOps
// operations and minPasses passes through the inputs, and ends on a whole
// number of passes, so every input weighs the same in the per-pass costs and
// the digest is complete; but it stops after maxStretch times d regardless.
func (s *session) measure(d time.Duration) *phase {
	p := &phase{}
	t0 := time.Now()
	for {
		el := time.Since(t0)
		n := len(p.lat)
		if el >= maxStretch*d || (el >= d && len(p.ops) >= minBatches && n >= minOps &&
			n >= minPasses*s.w.Inputs && n%s.w.Inputs == 0) {
			return p
		}
		s.batch(s.w.Batch, p)
	}
}

// digest is the FNV-64 of the first result hash of every input, in input
// order, or "incomplete" if some input never ran.
func (s *session) digest() string {
	h := newHash()
	for k, ok := range s.seen {
		if !ok {
			return "incomplete"
		}
		h.u64(s.want[k])
	}
	return fmt.Sprintf("%016x", uint64(h))
}

// hash is a 64-bit FNV-1a hash that writes fixed-size values without
// allocating.
type hash uint64

func newHash() hash { return 14695981039346656037 }

func (h *hash) u8(b byte) {
	*h ^= hash(b)
	*h *= 1099511628211
}

func (h *hash) u64(x uint64) {
	for range 8 {
		h.u8(byte(x))
		x >>= 8
	}
}

func (h *hash) i64(x int64)   { h.u64(uint64(x)) }
func (h *hash) f64(x float64) { h.u64(math.Float64bits(x)) }

func (h *hash) str(s string) {
	h.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.u8(s[i])
	}
}
