// Package cmvrp is the public API of this reproduction of "On A Capacitated
// Multivehicle Routing Problem" (Xiaojie Gao, Caltech Ph.D. thesis, 2008).
//
// CMVRP places one vehicle with energy capacity W at every vertex of the
// grid Z^l; moving one step and serving one job each cost one unit. The
// library answers the thesis' central question — how small can W be? — and
// ships the thesis' machinery:
//
//   - SolveOffline: the cube characterization omega_c (Corollary 2.2.7),
//     the linear-time Algorithm 1 estimate, and a constructively verified
//     vehicle schedule realizing Lemma 2.2.5's upper bound;
//   - ExactLowerBound: the exact LP (2.1) value omega* = max_T omega_T via
//     max-flow and minimum cuts (small instances);
//   - RunOnline / MeasureWon: the decentralized Chapter 3 strategy built on
//     Dijkstra-Scholten diffusing computations, with optional monitoring
//     (Section 3.2.5) and failure injection;
//   - RunSweep: the deterministic parallel episode-sweep engine — many
//     scenarios fanned over pooled warm runners, results ordered by
//     scenario index so output never depends on the worker count;
//   - the Chapter 4 broken-vehicle bounds and the Chapter 5 energy-transfer
//     analyses, re-exported from their subpackages via thin wrappers.
//
// See DESIGN.md for the system inventory and its "Experiment index" for the
// reproduction record; `go run ./cmd/experiments` regenerates every table.
package cmvrp

import (
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/broken"
	"repro/internal/demand"
	"repro/internal/grid"
	"repro/internal/lpchar"
	"repro/internal/offline"
	"repro/internal/online"
	"repro/internal/sweep"
	"repro/internal/transfer"
)

// Core vocabulary, aliased from the implementation packages so that all
// public entry points speak the same types.
type (
	// Point is a lattice point of Z^l.
	Point = grid.Point
	// Box is an axis-aligned box of lattice points.
	Box = grid.Box
	// Arena is a finite simulation grid.
	Arena = grid.Grid
	// Demand is a job-count function over lattice points.
	Demand = demand.Map
	// Sequence is an ordered stream of unit-job arrivals (the online input).
	Sequence = demand.Sequence
	// Schedule is a verified offline vehicle plan.
	Schedule = offline.Schedule
	// OnlineOptions configures the Chapter 3 strategy. Its SimShards field
	// selects the simulator scheduler: 0 is the legacy scheduler (the
	// historical golden schedules); any value >= 1 selects sealed rounds,
	// with results bit-identical for every such value.
	OnlineOptions = online.Options
	// OnlineResult reports an online run's outcome and cost metrics.
	OnlineResult = online.Result
	// OnlinePartition is the immutable cube/pair geometry of the Chapter 3
	// strategy. Build it once per sweep with NewOnlinePartition and share it
	// across any number of runs via OnlineOptions.Partition.
	OnlinePartition = online.Partition
	// FailureModel is the pluggable failure configuration for online runs:
	// the three crash knobs plus the Byzantine keep-beaconing mode.
	FailureModel = online.FailureModel
	// VehicleClass scales one fleet class's speed/energy/capacity.
	VehicleClass = online.VehicleClass
	// Fleet makes the online fleet heterogeneous (per-vehicle classes with
	// partition-aware assignment).
	Fleet = online.Fleet
	// SearchProtocol selects the Phase I dissemination protocol.
	SearchProtocol = online.SearchProtocol
	// Longevity holds the Chapter 4 breakdown parameters p_i.
	Longevity = broken.Longevity
	// ConvoyParams configures the Section 5.2.1 transfer convoy.
	ConvoyParams = transfer.ConvoyParams
	// ConvoyResult reports the convoy's closed form and simulation check.
	ConvoyResult = transfer.ConvoyResult
)

// Transfer accounting methods (Chapter 5).
const (
	FixedCost    = transfer.FixedCost
	VariableCost = transfer.VariableCost
)

// Phase I dissemination protocols for OnlineOptions.Search.
const (
	SearchDiffuse = online.SearchDiffuse
	SearchGossip  = online.SearchGossip
)

// P builds a Point from coordinates.
func P(coords ...int) Point { return grid.P(coords...) }

// NewArena builds a finite grid with the given per-axis sizes.
func NewArena(sizes ...int) (*Arena, error) { return grid.New(sizes...) }

// NewDemand creates an empty demand function over Z^dim.
func NewDemand(dim int) *Demand { return demand.NewMap(dim) }

// Manhattan returns the L1 distance (the thesis' travel-cost metric).
func Manhattan(a, b Point) int { return grid.Manhattan(a, b) }

// Workload generators (thesis Section 2.1 examples and synthetic stress
// shapes). All are deterministic given the caller's rng.
var (
	// SquareDemand is Example 1 (Fig 2.1a): demand d at each point of an
	// a x a square.
	SquareDemand = demand.Square
	// LineDemand is Example 2 (Fig 2.1b): demand d along a line.
	LineDemand = demand.Line
	// PointDemand is Example 3 (Fig 2.1c): demand d at one point.
	PointDemand = demand.PointMass
	// UniformDemand scatters unit jobs uniformly in a box.
	UniformDemand = demand.Uniform
	// ClusterDemand scatters jobs into localized clusters.
	ClusterDemand = demand.Clusters
	// ZipfDemand spreads jobs with a heavy-tailed rank-size law.
	ZipfDemand = demand.Zipf
)

// Arrival-order policies for ToSequence.
const (
	OrderSorted     = demand.OrderSorted
	OrderShuffled   = demand.OrderShuffled
	OrderRoundRobin = demand.OrderRoundRobin
)

// ToSequence expands a demand function into an arrival sequence. It
// refuses, with an error and before allocating anything, a demand whose
// total exceeds math.MaxInt32 jobs: an online runner indexes arrivals with
// 32 bits.
func ToSequence(m *Demand, order demand.Order, rng *rand.Rand) (*Sequence, error) {
	return demand.SequenceOf(m, order, rng)
}

// NewSequence builds a sequence from explicit arrivals.
func NewSequence(arrivals []Point) *Sequence { return demand.NewSequence(arrivals) }

// OfflineSolution is SolveOffline's answer.
type OfflineSolution struct {
	// OmegaC is the Corollary 2.2.7 cube characterization — a lower bound
	// on Woff up to the dimension constant.
	OmegaC float64
	// CubeSide is the partition granularity OmegaC certified.
	CubeSide int
	// Alg1W is the thesis Algorithm 1 capacity estimate (power-of-two
	// arenas only; 0 when the arena shape does not admit it).
	Alg1W float64
	// Schedule is a concrete, verifier-checked vehicle plan serving all
	// demand; Schedule.W is the capacity it certifies as sufficient.
	Schedule *Schedule
}

// ErrBoundaryCube is wrapped by SolveOffline's error when a partition cube
// clipped by the arena's far faces holds too few vehicles for its demand.
var ErrBoundaryCube = offline.ErrBoundaryCube

// SolveOffline runs the full offline pipeline of Chapter 2 on a demand
// function: characterize, estimate, construct, and verify (offline.Solve).
// The demand is densified exactly once: the characterization, the
// Algorithm 1 estimate, and the schedule construction all share one
// summed-area table over the bounding box of the demand's support, and the
// schedule is built from the already-computed characterization instead of
// re-deriving it. The pipeline's scratch comes from a pool shared across
// calls, so a repeated call allocates only its answer; the answer depends
// only on the inputs, never on that reuse, and concurrent calls are safe.
//
// Lemma 2.2.5's construction assumes every cube of its partition is full,
// as on the thesis' infinite grid. On a finite arena the cubes at the far
// faces are clipped; when demand near those faces needs more helpers than
// a clipped cube holds, the error wraps ErrBoundaryCube.
func SolveOffline(m *Demand, arena *Arena) (*OfflineSolution, error) {
	res, err := offline.Solve(m, arena)
	if err != nil {
		return nil, err
	}
	sol := &OfflineSolution{OmegaC: res.Char.Omega, CubeSide: res.Char.Side, Schedule: res.Schedule}
	if res.Alg1Err == nil {
		sol.Alg1W = res.Alg1.W
	}
	return sol, nil
}

// ExactLowerBound computes omega* = max_T omega_T, the exact value of the
// thesis' self-consistent program (2.8): one integer max-flow per radius
// test, then Newton steps on the minimum cut at the final radius, whose
// value is d(T)/|N_r(T)| for Lemma 2.2.2's maximizer T, rounded once. Cost
// grows with the demand's spatial spread; intended for small instances and
// validation. Total demand times |N_r(support)| must stay below 2^53 at every
// radius the search visits; past it ExactLowerBound returns an error.
func ExactLowerBound(m *Demand) (float64, error) {
	return lpchar.OmegaStarFlow(m)
}

// LPSolver is the reusable warm-start solver for the thesis' LP (2.1): built
// once per (demand, radius), its Value() returns the exact value
// d(T)/|N_r(T)| of Lemma 2.2.2's maximizing subset T, found by Newton steps
// on the minimum cut of one supply network (each step rewrites only source
// and sink capacities on reset residual state; a warm Value allocates
// nothing). Bind rebuilds it in place for a new instance, reusing all
// retained storage — keep one per worker in custom sweeps, mirroring the
// one-runner-per-worker rule of the online layer. Not safe for concurrent
// use; results are bit-identical to fresh construction. A radius whose L1
// ball is too large to list, or total demand times |N_r(support)| of 2^53 or
// more, is an error.
type LPSolver = lpchar.Solver

// NewLPSolver builds a warm-reusable LP (2.1) solver for (m, r).
func NewLPSolver(m *Demand, r int) (*LPSolver, error) {
	return lpchar.NewSolver(m, r)
}

// NewOnlinePartition builds the online strategy's static geometry — the cube
// decomposition, vertex pairing, and communication graph — once, so that
// repeated runs over the same arena (experiment sweeps, capacity searches)
// can share it through OnlineOptions.Partition instead of rebuilding it per
// run. The partition is immutable and safe to share across goroutines.
func NewOnlinePartition(arena *Arena, cubeSide int) (*OnlinePartition, error) {
	return online.NewPartition(arena, cubeSide)
}

// RunOnline executes the Chapter 3 decentralized strategy on an arrival
// sequence. Each call builds (or, via opts.Partition, reuses) the geometry
// and plays one episode. For many episodes, use RunSweep.
func RunOnline(seq *Sequence, opts OnlineOptions) (*OnlineResult, error) {
	r, err := online.NewRunner(opts)
	if err != nil {
		return nil, err
	}
	return r.Run(seq)
}

// SweepScenario is one cell of an episode sweep: the options and arrival
// sequence of one online run.
type SweepScenario = sweep.Scenario

// RunSweep plays one online episode per scenario on a deterministic parallel
// worker pool — the engine behind the experiments tables — and returns the
// results ordered by scenario index. Each worker owns long-lived warm
// runners keyed by geometry (arena pointer + cube side), so scenarios that
// share a geometry replay construction-free; scenarios are independent
// fixed-seed simulations, so the results are bit-for-bit identical for every
// worker count. workers <= 0 uses runtime.NumCPU(); 1 runs serially.
func RunSweep(scenarios []SweepScenario, workers int) ([]*OnlineResult, error) {
	return sweep.Episodes(sweep.Config{Workers: workers}, scenarios)
}

// MeasureWon finds the smallest capacity (within relative tol) at which the
// online strategy serves the whole sequence with no failed search — the
// empirical Won. The feasibility probes are fixed-seed runs on one warm
// runner, reset per probe instead of rebuilt. Searches share their runners
// across calls, keyed by geometry (arena pointer + cube side) as RunSweep's
// are, so repeated searches that pass one shared *Arena build nothing after
// the first; a search on another arena drops the kept runners. The answer
// depends only on the inputs, never on that reuse. An infeasible probe
// stops at the first arrival that leaves a failure or a failed search,
// which no later arrival can undo; a feasible one plays the whole sequence,
// as RunOnline does. So an error that an infeasible probe would raise only
// after its first failure, such as a step-limit livelock, is not reached,
// and an opts.Tracer sees each infeasible probe only up to its first
// failure.
func MeasureWon(seq *Sequence, opts OnlineOptions, tol float64) (float64, error) {
	return online.MinCapacity(seq, opts, tol)
}

// BrokenLowerBound computes the Theorem 4.1.1 capacity lower bound when
// vehicles break down according to the longevity parameters: the value of
// LP (4.1), found by the search ExactLowerBound runs, over segments between
// the capacities at which a vehicle's reach grows. It is exact when every
// longevity is 0 or 1 and within about 1e-9 relative otherwise, and an
// error when no vehicle can reach the demand or the value exceeds the
// float64 range.
func BrokenLowerBound(m *Demand, lon Longevity) (float64, error) {
	return broken.LowerBound(m, lon)
}

// Convoy evaluates the Section 5.2.1 transfer convoy on a line and verifies
// the thesis' closed forms by step-by-step simulation.
func Convoy(p ConvoyParams) (*ConvoyResult, error) { return transfer.Convoy(p) }

// TransferLowerBound is the Theorem 5.1.1 decay bound on Wtrans-off (2-D).
func TransferLowerBound(m *Demand) (float64, error) {
	return transfer.LowerBoundSquares(m)
}

// GreedyBaseline runs the centralized nearest-available dispatcher for
// comparison with the thesis strategy.
func GreedyBaseline(seq *Sequence, arena *Arena, capacity float64) (*baseline.GreedyResult, error) {
	return baseline.Greedy(seq, arena, capacity)
}
