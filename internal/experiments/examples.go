package experiments

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/offline"
)

// E1Square regenerates thesis Example 1 / Figure 2.1(a): demand d at every
// point of an a x a square. The thesis' W1 solves W*(2W+a)^2 = d*a^2 and
// approaches d as a grows; the formal omega_T (equation 1.1 with the L1
// neighborhood) shows the same limit.
func E1Square(sides []int, d int64) (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: fmt.Sprintf("square demand (Fig 2.1a), d=%d per point", d),
		Columns: []string{"a", "total demand", "W1 (thesis root)", "omega_T (eq 1.1)",
			"omega_T/d"},
		Notes: "Thesis: W1 solves W(2W+a)^2 = d*a^2; both W1 and omega_T approach d as a -> infinity.",
	}
	for _, a := range sides {
		if a < 1 {
			return nil, fmt.Errorf("experiments: square side %d", a)
		}
		af, df := float64(a), float64(d)
		total := df * af * af
		w1, err := grid.Least(func(w float64) (bool, error) {
			return w*(2*w+af)*(2*w+af) >= total, nil
		}, 0, 1, 1e-12)
		if err != nil {
			return nil, fmt.Errorf("experiments: W1 for a=%d: %w", a, err)
		}
		sq, err := grid.Cube(2, grid.P(0, 0), a)
		if err != nil {
			return nil, err
		}
		omega := grid.SolveOmega(sq, total)
		t.AddRow(a, int64(total), w1, omega, omega/df)
	}
	return t, nil
}

// E2Line regenerates thesis Example 2 / Figures 2.1(b), 2.2: demand d at
// every point of a long line. W2 solves W*(2W+1) = d, i.e. W2 ~ sqrt(d/2);
// the thesis' strategy gives every vehicle capacity 2*W2 and moves everyone
// within distance W2 onto the line. The last column verifies that strategy's
// energy balance exactly: vehicles at offset |y| <= W2 arrive with
// 2*W2 - |y| spare, and their pooled energy must cover d per line point.
func E2Line(ds []int64, lineLen int) (*Table, error) {
	t := &Table{
		ID:    "E2",
		Title: fmt.Sprintf("line demand (Fig 2.1b), length %d", lineLen),
		Columns: []string{"d per point", "W2 (thesis root)", "omega_T (eq 1.1)",
			"omega/W2", "2*W2 strategy feasible"},
		Notes: "Thesis: W2(2W2+1) = d so W2 ~ sqrt(d/2); capacity 2*W2 suffices via the Figure 2.2 move.",
	}
	for _, d := range ds {
		df := float64(d)
		w2, err := grid.Least(func(w float64) (bool, error) { return w*(2*w+1) >= df, nil }, 0, 1, 1e-12)
		if err != nil {
			return nil, fmt.Errorf("experiments: W2 for d=%d: %w", d, err)
		}
		line, err := grid.NewBox(2, grid.P(0, 0), grid.P(lineLen-1, 0))
		if err != nil {
			return nil, err
		}
		omega := grid.SolveOmega(line, df*float64(lineLen))
		// Build the Figure 2.2 strategy as an actual schedule and run it
		// through the independent verifier.
		sched, m, err := offline.LineStrategy(grid.P(0, 1000), lineLen, d)
		feasible := err == nil
		if feasible {
			if _, err := offline.VerifySchedule(m, sched, sched.W); err != nil {
				return nil, fmt.Errorf("experiments: E2 schedule invalid: %w", err)
			}
		}
		t.AddRow(d, w2, omega, omega/w2, feasible)
	}
	return t, nil
}

// E3Point regenerates thesis Example 3 / Figures 2.1(c), 2.3: demand d at a
// single point. W3 solves W*(2W+1)^2 = d, i.e. W3 ~ (d/4)^(1/3); capacity
// 3*W3 suffices by moving the (2W3+1)^2 square of vehicles onto the point
// (each travels at most 2*W3). The last column checks that pooled energy.
func E3Point(ds []int64) (*Table, error) {
	t := &Table{
		ID:    "E3",
		Title: "point demand (Fig 2.1c)",
		Columns: []string{"d", "W3 (thesis root)", "omega_T (eq 1.1)",
			"omega/W3", "3*W3 strategy feasible"},
		Notes: "Thesis: W3(2W3+1)^2 = d so W3 ~ (d/4)^(1/3); capacity 3*W3 suffices via the Figure 2.3 move.",
	}
	for _, d := range ds {
		df := float64(d)
		w3, err := grid.Least(func(w float64) (bool, error) { return w*(2*w+1)*(2*w+1) >= df, nil }, 0, 1, 1e-12)
		if err != nil {
			return nil, fmt.Errorf("experiments: W3 for d=%d: %w", d, err)
		}
		pt, err := grid.NewBox(2, grid.P(0, 0), grid.P(0, 0))
		if err != nil {
			return nil, err
		}
		omega := grid.SolveOmega(pt, df)
		// Build the Figure 2.3 strategy as an actual schedule and run it
		// through the independent verifier.
		sched, m, err := offline.PointStrategy(grid.P(1000, 1000), d)
		feasible := err == nil
		if feasible {
			if _, err := offline.VerifySchedule(m, sched, sched.W); err != nil {
				return nil, fmt.Errorf("experiments: E3 schedule invalid: %w", err)
			}
		}
		t.AddRow(d, w3, omega, omega/w3, feasible)
	}
	return t, nil
}
