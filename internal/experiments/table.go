// Package experiments regenerates every reproducible artifact of the thesis
// — the worked examples of Section 2.1, the duality chain of Section 2.2,
// Algorithm 1's approximation quality and work, the online strategy of
// Chapter 3, the broken-vehicle gap of Chapter 4, and the transfer results
// of Chapter 5 — as deterministic, printable tables. Experiment IDs E1..E15
// are indexed in DESIGN.md's "Experiment index"; `go run ./cmd/experiments`
// prints them. Both cmd/experiments and the repository benchmarks call
// into this package so the published numbers and the benchmarked code paths
// are identical. Every table is a pure function of its parameters. The
// multi-scenario experiments (E5, E7, E11, E13, E14, E15) are sweep
// declarations over package sweep's deterministic parallel engine: their
// tables are byte-identical for every worker width.
package experiments

import (
	"fmt"
	"strings"
)

// Table is one experiment's output: a titled grid of rendered cells.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   string
}

// AddRow appends a row, formatting each value with %v (floats as %.4g).
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	b.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if t.Notes != "" {
		b.WriteString("\n" + t.Notes + "\n")
	}
	return b.String()
}
