package online

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/grid"
)

// FailureModel is the pluggable failure layer of the online simulator and
// the only way to configure failures (Options.Failure): three crash knobs
// (FailInitiate, DeadBeforeArrival, Longevity) and the Byzantine mode.
// All maps are keyed by home cell and densified once at the NewRunner /
// ResetEpisode boundary; the simulation itself never hashes a point.
//
// The taxonomy (see DESIGN.md "Failure models"):
//
//	crash-initiate — FailInitiate: on exhaustion the vehicle silently skips
//	                 its replacement search (Section 3.2.5 scenario 2).
//	crash-schedule — DeadBeforeArrival: the vehicle dies right before the
//	                 given arrival index (scenario 3).
//	crash-wearout  — Longevity: the Chapter 4 breakdown fraction p_i; the
//	                 vehicle dies once it has spent p of its capacity.
//	byzantine      — Byzantine: a *dead* vehicle keeps emitting msgExisting
//	                 beacons to its watcher instead of going silent, so the
//	                 beacon-timeout rescue path never fires for it. Only the
//	                 evidence channel — customer complaints about jobs that
//	                 went unserved — can unmask it (see Runner.Run and
//	                 vehicle.onCheck).
type FailureModel struct {
	// FailInitiate marks home cells whose vehicle, upon exhaustion, fails to
	// start its replacement search.
	FailInitiate map[grid.Point]bool
	// DeadBeforeArrival kills the vehicle homed at a cell right before the
	// given arrival index is processed. Dead vehicles stop serving and
	// initiating but keep relaying messages.
	DeadBeforeArrival map[grid.Point]int
	// Longevity gives vehicles the Chapter 4 breakdown parameter p_i
	// (0 = broken from the start, 1 or absent = never breaks).
	Longevity map[grid.Point]float64
	// Byzantine marks home cells whose vehicle, once dead, keeps lying to
	// its watcher: it emits liveness beacons as if it were the healthy
	// active server of its pair. The beacon itself is forgeable; completed
	// work is not — the rescue path for these casualties is evidence-based.
	Byzantine map[grid.Point]bool
}

// failureModel returns the episode's failure model: the zero model (no
// failures) when Options.Failure is nil.
func (o *Options) failureModel() FailureModel {
	if o.Failure == nil {
		return FailureModel{}
	}
	return *o.Failure
}

// worstUnknown returns the least key of m that lies outside the arena, so
// the reported cell — and hence the error text — does not depend on map
// iteration order.
func worstUnknown[V any](arena *grid.Grid, m map[grid.Point]V) (grid.Point, bool) {
	p, _, ok := grid.LeastKey(m, func(p grid.Point, _ V) bool { return !arena.Contains(p) })
	return p, ok
}

// validate checks every map key against the arena at construction time,
// matching the unknown-cell error DeadBeforeArrival reports lazily when its
// event fires (densifyDeadEvents keeps that behavior: a dead event can be
// scheduled past the sequence end and never fire, so it is only an error if
// reached). FailInitiate, Longevity, and Byzantine entries have no firing
// time — a key outside the arena can only be a bug, so it is rejected up
// front. Longevity values are range-checked here too.
func (m FailureModel) validate(arena *grid.Grid) error {
	if cell, ok := worstUnknown(arena, m.FailInitiate); ok {
		return fmt.Errorf("online: FailInitiate cell %v not in arena", cell)
	}
	if cell, ok := worstUnknown(arena, m.Longevity); ok {
		return fmt.Errorf("online: Longevity cell %v not in arena", cell)
	}
	if cell, ok := worstUnknown(arena, m.Byzantine); ok {
		return fmt.Errorf("online: Byzantine cell %v not in arena", cell)
	}
	if cell, p, ok := grid.LeastKey(m.Longevity, func(_ grid.Point, p float64) bool {
		return !(p >= 0 && p <= 1)
	}); ok {
		return fmt.Errorf("online: longevity %v at %v outside [0,1]", p, cell)
	}
	return nil
}

// VehicleClass scales one vehicle's abilities relative to the uniform fleet
// of the thesis. A zero multiplier means "default" (1.0), so partial
// literals stay valid; negative and non-finite multipliers are rejected.
type VehicleClass struct {
	// Name labels the class in traces and tables.
	Name string
	// Speed divides the energy cost of walking: a vehicle of speed s pays
	// 1/s per lattice step (s > 1 models faster or more frugal locomotion).
	Speed float64
	// Energy divides the energy cost of serving one job: 1/e per job.
	Energy float64
	// Capacity multiplies the episode's budget W for this vehicle.
	Capacity float64
}

func orOne(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}

// stepCost, jobCost, capMult are the densified per-vehicle multipliers.
func (c VehicleClass) stepCost() float64 { return 1 / orOne(c.Speed) }
func (c VehicleClass) jobCost() float64  { return 1 / orOne(c.Energy) }
func (c VehicleClass) capMult() float64  { return orOne(c.Capacity) }

// Fleet makes the fleet heterogeneous: a class table plus an assignment of
// vehicles (by home cell) to classes. With no explicit Assign entry a
// vehicle gets the partition-aware default: classes round-robin along its
// cube's snake-ordered pair list, so every cube carries the same class mix
// regardless of where it sits in the arena — heterogeneous vehicles,
// homogeneous cubes.
type Fleet struct {
	// Classes is the class table; class 0 is the default for a one-entry
	// fleet. Must be non-empty when Fleet is set.
	Classes []VehicleClass
	// Assign maps home cells to indices into Classes, overriding the
	// partition-aware default for those cells.
	Assign map[grid.Point]int
}

// validate rejects empty class tables, negative or non-finite multipliers,
// out-of-range assignments, and — matching FailureModel.validate —
// assignment keys outside the arena.
func (f *Fleet) validate(arena *grid.Grid) error {
	if f == nil {
		return nil
	}
	if len(f.Classes) == 0 {
		return errors.New("online: Fleet.Classes must be non-empty")
	}
	for i, c := range f.Classes {
		for _, m := range [...]float64{c.Speed, c.Energy, c.Capacity} {
			if m < 0 || math.IsNaN(m) || math.IsInf(m, 0) {
				return fmt.Errorf("online: fleet class %d (%q) has a negative or non-finite multiplier %v",
					i, c.Name, m)
			}
		}
	}
	if cell, ok := worstUnknown(arena, f.Assign); ok {
		return fmt.Errorf("online: Fleet.Assign cell %v not in arena", cell)
	}
	if cell, idx, ok := grid.LeastKey(f.Assign, func(_ grid.Point, idx int) bool {
		return idx < 0 || idx >= len(f.Classes)
	}); ok {
		return fmt.Errorf("online: Fleet.Assign class %d at %v outside [0,%d)", idx, cell, len(f.Classes))
	}
	return nil
}

// classAt resolves the class of the vehicle homed at cell (with pair id
// pairID): the explicit Assign entry when present, else the partition-aware
// round-robin. Cube pair ids are contiguous in snake order, so the pair's
// rank within its cube is an index subtraction, not a scan.
func (f *Fleet) classAt(part *Partition, cell grid.Point, pairID int) VehicleClass {
	if idx, ok := f.Assign[cell]; ok {
		return f.Classes[idx]
	}
	first, _ := part.cubeRange(pairID)
	return f.Classes[(pairID-first)%len(f.Classes)]
}

// SearchProtocol selects the Phase I dissemination protocol used to locate
// idle replacement candidates.
type SearchProtocol int

const (
	// SearchDiffuse is the thesis' Dijkstra-Scholten diffusing computation
	// (Algorithm 2): a full flood of the communication neighborhood with
	// exact termination detection. The default.
	SearchDiffuse SearchProtocol = iota
	// SearchGossip is the fanout-limited gossip alternative: the same
	// engine, but each node forwards the query to at most
	// Options.GossipFanout deterministically chosen neighbors. Cheaper in
	// messages, but the search may miss the only idle candidate — the
	// fidelity/traffic knob. At fanout 0 it is SearchDiffuse exactly.
	SearchGossip
)

// validateSearch rejects unknown protocols and malformed fanouts at the same
// construction-time boundary as the failure and fleet knobs.
func validateSearch(protocol SearchProtocol, fanout int) error {
	switch protocol {
	case SearchDiffuse, SearchGossip:
	default:
		return fmt.Errorf("online: unknown search protocol %d", int(protocol))
	}
	if fanout < 0 {
		return fmt.Errorf("online: GossipFanout %d must be >= 0", fanout)
	}
	if fanout > 0 && protocol != SearchGossip {
		return errors.New("online: GossipFanout set but Search is not SearchGossip")
	}
	return nil
}

// validateExtensions runs every construction-time check the failure, fleet,
// search and scheduler knobs need, and returns the normalized failure model.
// Shared by NewRunner and ResetEpisode so both boundaries reject exactly the
// same inputs (ResetEpisode validates before mutating anything).
func (o *Options) validateExtensions(arena *grid.Grid) (FailureModel, error) {
	if o.SimShards < 0 {
		return FailureModel{}, fmt.Errorf("online: SimShards %d must be >= 0", o.SimShards)
	}
	model := o.failureModel()
	if err := model.validate(arena); err != nil {
		return FailureModel{}, err
	}
	if err := o.Fleet.validate(arena); err != nil {
		return FailureModel{}, err
	}
	if err := validateSearch(o.Search, o.GossipFanout); err != nil {
		return FailureModel{}, err
	}
	return model, nil
}
