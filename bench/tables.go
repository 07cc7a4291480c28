package bench

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

// tableWorkers is the sweep width of the tables, as in
// `cmd/experiments -quick -workers 1`. Each sweep worker builds its own warm
// state on the first task it takes, so with two workers the allocations
// follow how the host's load splits the tasks between them: under load they
// fell by up to 3%, more than the allocs_per_op bound. One worker allocates
// the same on every op.
const tableWorkers = 1

var experimentsQuick = &Workload{
	Name:     "experiments-quick",
	Why:      "every quick table in process (cmd/experiments -quick -workers 1): mixes every layer, so a one-layer gain is diluted here",
	Inputs:   1,
	Clients:  1,
	Batch:    12,
	Warmup:   2,
	SeedFree: true,
	setup:    setupExperimentsQuick,
}

// setupExperimentsQuick has nothing to build: the tables use the fixed seed
// 2008, so the benchmark's seed does not apply.
func setupExperimentsQuick(int64, int) (*instance, error) {
	return &instance{
		serve: oneClient,
		op: func(_ *sweep.Worker, _ int, tr *tracer) (uint64, error) {
			var tables []*experiments.Table
			if tr == nil {
				var err error
				if tables, err = experiments.All(true, tableWorkers, 0); err != nil {
					return 0, err
				}
			} else {
				// All is Some("") and builds the tables in this order.
				for _, id := range experimentIDs {
					s := tr.begin()
					t, err := experiments.Some(id, true, tableWorkers, 0)
					tr.end(s, "experiments."+id)
					if err != nil {
						return 0, err
					}
					tables = append(tables, t...)
				}
			}
			if len(tables) != len(experimentIDs) {
				return 0, fmt.Errorf("%d tables, want %d", len(tables), len(experimentIDs))
			}
			return hashTables(tables), nil
		},
	}, nil
}

// hashTables hashes the tables' contents except E6's rows, which are
// wall-clock timings.
func hashTables(tables []*experiments.Table) uint64 {
	h := newHash()
	for _, t := range tables {
		h.str(t.ID)
		h.str(t.Title)
		for _, c := range t.Columns {
			h.str(c)
		}
		if t.ID != "E6" {
			for _, row := range t.Rows {
				for _, c := range row {
					h.str(c)
				}
			}
		}
		h.str(t.Notes)
	}
	return uint64(h)
}
