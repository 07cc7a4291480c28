package bench

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"

	cmvrp "repro"
	"repro/internal/demand"
	"repro/internal/grid"
	"repro/internal/offline"
	"repro/internal/online"
	"repro/internal/sweep"
)

var episodeSweep = &Workload{
	Name:    "episode-sweep",
	Why:     "long warm episodes on uniform demand and the legacy scheduler: sim delivery, diffuse search and the online vehicle logic, with no LP work",
	Inputs:  1024,
	Clients: 2,
	Batch:   1024,
	Warmup:  64,
	setup:   setupEpisodeSweep,
}

var wonSearch = &Workload{
	Name:    "won-search",
	Why:     "the same layers as episode-sweep through many short probe episodes, so Runner.Reset and partition reuse dominate",
	Inputs:  384,
	Clients: 2,
	Batch:   128,
	Warmup:  8,
	setup:   setupWonSearch,
}

var monitoredSharded = &Workload{
	Name:    "monitored-sharded",
	Why:     "sim through sealed rounds, barriers and heartbeat waves, with gossip search and Byzantine and crash failures",
	Inputs:  256,
	Clients: 1,
	Batch:   8,
	Warmup:  2,
	setup:   setupMonitoredSharded,
}

// checkEpisode checks the invariants every episode must keep: each arrival
// is served or recorded as a failure, and no vehicle spends more than its
// capacity. Unserved jobs are a valid outcome at tight capacity.
func checkEpisode(res *online.Result, arrivals int, capacity float64) error {
	if got := res.Served + int64(len(res.Failures)); got != int64(arrivals) {
		return fmt.Errorf("served %d + failures %d != %d arrivals", res.Served, len(res.Failures), arrivals)
	}
	if res.MaxEnergy > capacity {
		return fmt.Errorf("max energy %v exceeds capacity %v", res.MaxEnergy, capacity)
	}
	return nil
}

func hashEpisode(res *online.Result) uint64 {
	h := newHash()
	h.i64(res.Served)
	h.i64(int64(len(res.Failures)))
	for _, f := range res.Failures {
		for _, c := range f.Pos {
			h.i64(int64(c))
		}
		h.str(f.Reason)
	}
	h.f64(res.MaxEnergy)
	for _, x := range []int64{res.Messages, res.Replacements, res.Searches, res.SearchFailures,
		res.MonitorRescues, res.EvidenceRescues, res.ReplaceLatencySum, res.ReplaceLatencyCount} {
		h.i64(x)
	}
	return uint64(h)
}

// episodeTraced makes the calls sweep.Worker.Episode makes, pool.Get then
// Runner.Run, with a span around each. The Get span is online.build when
// the pool had to construct a runner and online.reset when it reused one.
func episodeTraced(pool *online.Pool, opts online.Options, seq *demand.Sequence, tr *tracer) (*online.Result, error) {
	before := pool.Stats()
	s := tr.begin()
	r, err := pool.Get(opts)
	after := pool.Stats()
	name := "online.reset"
	if after.Builds > before.Builds {
		name = "online.build"
	}
	tr.end(s, name)
	if err != nil {
		return nil, err
	}
	tr.add("sweep.pool_builds", float64(after.Builds-before.Builds))
	tr.add("sweep.pool_resets", float64(after.Resets-before.Resets))
	s = tr.begin()
	res, err := r.Run(seq)
	tr.end(s, "online.run")
	if err != nil {
		return nil, err
	}
	tr.addEpisode(res, seq.Len())
	return res, nil
}

// onlineInput is one seeded arrival sequence with its cube characterization.
type onlineInput struct {
	seq  *demand.Sequence
	char offline.CubeChar
	seed int64
}

// onlineInputs builds n shuffled arrival sequences of jobs arrivals each in
// the central box of arena, in the three shapes of demandPool.
func onlineInputs(seed int64, arena *grid.Grid, side, n int, jobs int64) ([]onlineInput, error) {
	rng := rand.New(rand.NewSource(seed))
	box, err := centralBox(arena, side)
	if err != nil {
		return nil, err
	}
	ms, err := demandPool(rng, box, n, jobs)
	if err != nil {
		return nil, err
	}
	in := make([]onlineInput, n)
	for k, m := range ms {
		char, err := offline.OmegaC(m, arena)
		if err != nil {
			return nil, err
		}
		seq, err := demand.SequenceOf(m, demand.OrderShuffled, rng)
		if err != nil {
			return nil, err
		}
		in[k] = onlineInput{seq: seq, char: char, seed: rng.Int63()}
	}
	return in, nil
}

// sweepSide is the cube side of every episode-sweep input. Uniform demand
// draws side 2 about six times in seven; the rest draw side 1, whose
// episodes run no search at all, and are drawn again.
const sweepSide = 2

// setupEpisodeSweep builds uniform demand only. Cluster and Zipf episodes at
// this capacity end with anywhere from none to a hundred unserved jobs,
// each of which allocates, so with them in the pool the allocation count per
// operation moved by about 1% from seed to seed even with 6144 inputs; the
// other workloads keep the three shapes.
func setupEpisodeSweep(seed int64, inputs int) (*instance, error) {
	arena, err := grid.New(32, 32)
	if err != nil {
		return nil, err
	}
	box, err := centralBox(arena, 16)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	scen := make([]sweep.Scenario, 0, inputs)
	for draws := 0; len(scen) < inputs; draws++ {
		if draws == 4*inputs {
			return nil, fmt.Errorf("%d of %d uniform draws had cube side %d", len(scen), draws, sweepSide)
		}
		m, err := demand.Uniform(rng, box, 1000)
		if err != nil {
			return nil, err
		}
		char, err := offline.OmegaC(m, arena)
		if err != nil {
			return nil, err
		}
		if char.Side != sweepSide {
			continue
		}
		seq, err := demand.SequenceOf(m, demand.OrderShuffled, rng)
		if err != nil {
			return nil, err
		}
		// 12*omega_c gives about 78 Phase I searches and as many Phase II
		// replacements per episode: long episodes that exhaust vehicles
		// but serve nearly every job.
		scen = append(scen, sweep.Scenario{
			Opts: online.Options{Arena: arena, CubeSide: sweepSide,
				Capacity: 12 * math.Max(char.Omega, 1), Seed: rng.Int63()},
			Seq: seq,
		})
	}
	return &instance{
		serve: sweepClients(2),
		op: func(w *sweep.Worker, i int, tr *tracer) (uint64, error) {
			sc := scen[i%len(scen)]
			var res *online.Result
			var err error
			if tr == nil {
				res, err = w.Episode(sc.Opts, sc.Seq)
			} else {
				res, err = episodeTraced(w.Pool(), sc.Opts, sc.Seq, tr)
			}
			if err != nil {
				return 0, err
			}
			if err := checkEpisode(res, sc.Seq.Len(), sc.Opts.Capacity); err != nil {
				return 0, err
			}
			return hashEpisode(res), nil
		},
	}, nil
}

const (
	// wonTol is the relative tolerance of every capacity search.
	wonTol = 0.05
	// serveCost is the online strategy's energy per served job, the lower
	// end of every capacity search.
	serveCost = 2.0
	// maxSearchCapacity bounds the exponential bracket of a search.
	maxSearchCapacity = 1e12
)

func setupWonSearch(seed int64, inputs int) (*instance, error) {
	arena, err := grid.New(16, 16)
	if err != nil {
		return nil, err
	}
	in, err := onlineInputs(seed, arena, 8, inputs, 300)
	if err != nil {
		return nil, err
	}
	return &instance{
		serve: sweepClients(2),
		op: func(_ *sweep.Worker, i int, tr *tracer) (uint64, error) {
			x := in[i%len(in)]
			opts := online.Options{Arena: arena, CubeSide: x.char.Side, Seed: x.seed}
			var won float64
			var err error
			if tr == nil {
				won, err = cmvrp.MeasureWon(x.seq, opts, wonTol)
			} else {
				s := tr.begin()
				won, err = minCapacityTraced(x.seq, opts, tr)
				tr.end(s, "online.min_capacity")
			}
			if err != nil {
				return 0, err
			}
			if oc := x.char.Omega; won < oc || won > 38*math.Max(oc, 1) {
				return 0, fmt.Errorf("Won %v outside [omega_c, 38*max(omega_c,1)] for omega_c %v", won, oc)
			}
			h := newHash()
			h.f64(won)
			return uint64(h), nil
		},
	}, nil
}

// minCapacityTraced makes the calls cmvrp.MeasureWon makes with one search
// worker, the serial online.MinCapacity from a lower end of 1, with a span
// around each: one partition, one runner build, then a reset and a run per
// probe. It must return the same capacity.
func minCapacityTraced(seq *demand.Sequence, base online.Options, tr *tracer) (float64, error) {
	s := tr.begin()
	part, err := online.NewPartition(base.Arena, base.CubeSide)
	tr.end(s, "online.partition")
	if err != nil {
		return 0, err
	}
	base.Partition = part
	var r *online.Runner
	probe := func(w float64) (bool, error) {
		var err error
		s := tr.begin()
		if r == nil {
			opts := base
			opts.Capacity = w
			r, err = online.NewRunner(opts)
			tr.end(s, "online.build")
		} else {
			err = r.Reset(w, base.Seed)
			tr.end(s, "online.reset")
		}
		if err != nil {
			return false, err
		}
		s = tr.begin()
		var res *online.Result
		res, err = r.Run(seq)
		tr.end(s, "online.run")
		if err != nil {
			return false, err
		}
		tr.addEpisode(res, seq.Len())
		return res.OK() && res.SearchFailures == 0, nil
	}

	lo := serveCost
	hi := lo
	for {
		ok, err := probe(hi)
		if err != nil {
			return 0, err
		}
		if ok {
			break
		}
		hi *= 2
		if hi > maxSearchCapacity {
			return 0, errors.New("no feasible capacity below 1e12")
		}
	}
	if ok, err := probe(lo); err != nil {
		return 0, err
	} else if ok {
		return lo, nil
	}
	for hi-lo > wonTol*math.Max(1, hi) {
		mid := (lo + hi) / 2
		ok, err := probe(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// rerunEvery is how often monitored-sharded replays an operation at one
// shard, outside timing, to check that the shard count changes nothing.
const rerunEvery = 50

func setupMonitoredSharded(seed int64, inputs int) (*instance, error) {
	const n, arrivals = 16, 400
	arena, err := grid.New(n, n)
	if err != nil {
		return nil, err
	}
	const side = 4
	part, err := online.NewPartition(arena, side)
	if err != nil {
		return nil, err
	}
	pairs := part.Pairs()
	rng := rand.New(rand.NewSource(seed))
	type input struct {
		opts online.Options
		seq  *demand.Sequence
	}
	in := make([]input, inputs)
	for k := range in {
		jobs := make([]grid.Point, arrivals)
		for j := range jobs {
			jobs[j] = grid.P(rng.Intn(n), rng.Intn(n))
		}
		// A tenth of the cells die, the i-th right before arrival 5+3i so
		// the rescues are staggered; every second casualty keeps lying to
		// its watcher. Each is the service cell of a pair whose vehicle is
		// on duty and whose watcher pair lives, so nearly every death costs
		// a rescue. Deaths at random cells cost one only about half the
		// time, and the allocation count per operation then moved by 3%
		// from seed to seed.
		deaths := make(map[grid.Point]int)
		byzantine := make(map[grid.Point]bool)
		dead := make(map[int]bool)
		for _, k := range rng.Perm(len(pairs)) {
			if len(dead) == n*n/10 {
				break
			}
			if dead[part.WatcherPair(k)] || dead[part.WatchedPair(k)] {
				continue
			}
			i := len(dead)
			dead[k] = true
			c := pairs[k].ServicePos()
			deaths[c] = 5 + 3*i
			if i%2 == 1 {
				byzantine[c] = true
			}
		}
		in[k] = input{
			opts: online.Options{
				Arena: arena, CubeSide: side, Capacity: 30, Seed: rng.Int63(),
				Monitoring: true, SimShards: 2,
				Search: online.SearchGossip, GossipFanout: 3,
				Failure: &online.FailureModel{DeadBeforeArrival: deaths, Byzantine: byzantine},
			},
			seq: demand.NewSequence(jobs),
		}
	}
	pool, onePool := online.NewPool(), online.NewPool()
	type rerun struct {
		op  int
		in  input
		res *online.Result
	}
	var reruns []rerun
	return &instance{
		serve: oneClient,
		op: func(_ *sweep.Worker, i int, tr *tracer) (uint64, error) {
			x := in[i%len(in)]
			var res *online.Result
			var err error
			if tr == nil {
				var r *online.Runner
				if r, err = pool.Get(x.opts); err == nil {
					res, err = r.Run(x.seq)
				}
			} else {
				res, err = episodeTraced(pool, x.opts, x.seq, tr)
			}
			if err != nil {
				return 0, err
			}
			if err := checkEpisode(res, x.seq.Len(), x.opts.Capacity); err != nil {
				return 0, err
			}
			if i%rerunEvery == 0 {
				reruns = append(reruns, rerun{i, x, res})
			}
			return hashEpisode(res), nil
		},
		recheck: func() []error {
			var errs []error
			for _, rr := range reruns {
				opts := rr.in.opts
				opts.SimShards = 1
				r, err := onePool.Get(opts)
				var res *online.Result
				if err == nil {
					res, err = r.Run(rr.in.seq)
				}
				if err == nil && !reflect.DeepEqual(res, rr.res) {
					err = errors.New("result differs at SimShards 1")
				}
				if err != nil {
					errs = append(errs, fmt.Errorf("op %d rerun: %w", rr.op, err))
				}
			}
			reruns = reruns[:0]
			return errs
		},
	}, nil
}
