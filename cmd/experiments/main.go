// Command experiments regenerates every reproduction table E1..E15 (indexed
// in DESIGN.md's "Experiment index") and prints them as markdown.
//
// Usage:
//
//	experiments [-quick] [-run E7] [-workers N] [-shards S]
//
// -quick shrinks instance sizes for a fast smoke run; -run selects a single
// experiment by id; -workers sets the sweep fan-out width (every table is
// byte-identical for every width — the default is pinned rather than
// runtime.NumCPU() so runs on different hosts do the same thing by default).
// -shards selects the simulator scheduler for the simulator-backed
// experiments: 0 (the default) is the legacy scheduler that produces the
// tables of a plain `go run ./cmd/experiments`; any S >= 1 selects sealed
// rounds, whose tables are byte-identical for every such S — CI diffs the
// -shards 1 and -shards 8 outputs as the determinism gate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

// defaultSweepWorkers pins the sweep width: not for reproducible values —
// those are width-independent — but so the shipped command behaves
// identically on every host by default.
const defaultSweepWorkers = 4

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "shrink instance sizes for a fast run")
	only := fs.String("run", "", "run a single experiment id (e.g. E7)")
	workers := fs.Int("workers", defaultSweepWorkers,
		"sweep fan-out width (tables are byte-identical for every value)")
	shards := fs.Int("shards", 0,
		"simulator scheduler: 0 = legacy, any value >= 1 = sealed rounds (tables are byte-identical for every such value)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 1 {
		return fmt.Errorf("-workers %d must be >= 1", *workers)
	}
	if *shards < 0 {
		return fmt.Errorf("-shards %d must be >= 0", *shards)
	}
	want := strings.ToUpper(strings.TrimSpace(*only))
	// Only the selected experiment is computed (-run E7 does not pay for the
	// other twelve).
	tables, err := experiments.Some(want, *quick, *workers, *shards)
	if err != nil {
		return err
	}
	if len(tables) == 0 {
		return fmt.Errorf("no experiment matches %q (valid: E1..E15)", *only)
	}
	for _, t := range tables {
		fmt.Fprintln(out, t.Markdown())
	}
	return nil
}
