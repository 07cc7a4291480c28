package lpchar

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// A dense two-phase primal simplex solver for small LPs in standard
// inequality form, maximize c^T x subject to A x <= b, x >= 0: the direct LP
// route behind SimplexValue, the third independent check on LP (2.1) next to
// the max-flow Solver and the Lemma 2.2.2 closed form SubsetValue.

// Eps is the pivoting tolerance.
const Eps = 1e-9

// Status describes a solve outcome.
type Status int

// Solve outcomes.
const (
	// Optimal means an optimal solution was found.
	Optimal Status = iota + 1
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective can grow without limit.
	Unbounded
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Problem is an LP in standard inequality form.
type Problem struct {
	// C is the objective vector (maximize C.x).
	C []float64
	// A is the constraint matrix, row-major; each row i satisfies
	// A[i].x <= B[i].
	A [][]float64
	// B is the right-hand side.
	B []float64
}

// Solution is an LP result.
type Solution struct {
	Status Status
	// Value is the optimal objective (valid when Status == Optimal).
	Value float64
	// X is an optimal assignment (valid when Status == Optimal).
	X []float64
}

// ErrBadShape is returned for inconsistent problem dimensions.
var ErrBadShape = errors.New("simplex: inconsistent problem shape")

// Solve runs two-phase simplex (Bland's rule, so it cannot cycle).
func Solve(p Problem) (*Solution, error) {
	n := len(p.C)
	m := len(p.A)
	if len(p.B) != m {
		return nil, fmt.Errorf("%w: %d rows vs %d rhs", ErrBadShape, m, len(p.B))
	}
	for i, row := range p.A {
		if len(row) != n {
			return nil, fmt.Errorf("%w: row %d has %d cols, want %d", ErrBadShape, i, len(row), n)
		}
	}
	for _, v := range p.C {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("simplex: non-finite objective coefficient %v", v)
		}
	}
	// Tableau with slack variables; negative rhs rows need phase 1.
	t := newTableau(p)
	if t.needPhase1 {
		if !t.phase1() {
			return &Solution{Status: Infeasible}, nil
		}
	}
	switch t.phase2() {
	case Unbounded:
		return &Solution{Status: Unbounded}, nil
	default:
		x := t.extract()
		return &Solution{Status: Optimal, Value: t.objective(p.C, x), X: x}, nil
	}
}

// tableau holds the dense simplex state: rows are constraints, columns are
// [structural | slack | artificial], with a basis index per row.
type tableau struct {
	n, m       int // structural vars, constraints
	nArt       int
	a          [][]float64 // m x (n + m + nArt)
	b          []float64
	basis      []int
	cost       []float64 // current objective row (phase-dependent)
	needPhase1 bool
	artStart   int
	pOrig      Problem
}

func newTableau(p Problem) *tableau {
	n, m := len(p.C), len(p.A)
	t := &tableau{n: n, m: m, pOrig: p}
	// Count artificials: one per negative-rhs row.
	for _, bi := range p.B {
		if bi < 0 {
			t.nArt++
		}
	}
	t.needPhase1 = t.nArt > 0
	cols := n + m + t.nArt
	t.artStart = n + m
	t.a = make([][]float64, m)
	t.b = make([]float64, m)
	t.basis = make([]int, m)
	art := 0
	for i := 0; i < m; i++ {
		row := make([]float64, cols)
		sign := 1.0
		if p.B[i] < 0 {
			sign = -1 // multiply the row by -1 so rhs >= 0
		}
		for j := 0; j < n; j++ {
			row[j] = sign * p.A[i][j]
		}
		row[n+i] = sign // slack (negative slack coefficient when flipped)
		t.b[i] = sign * p.B[i]
		if sign < 0 {
			// Flipped row: slack coefficient is -1, not a valid basis
			// column; add an artificial.
			row[t.artStart+art] = 1
			t.basis[i] = t.artStart + art
			art++
		} else {
			t.basis[i] = n + i
		}
		t.a[i] = row
	}
	return t
}

// phase1 drives the artificials out; returns false when infeasible.
func (t *tableau) phase1() bool {
	cols := len(t.a[0])
	t.cost = make([]float64, cols)
	for j := t.artStart; j < cols; j++ {
		t.cost[j] = -1 // maximize -sum(artificials)
	}
	obj := t.run()
	if obj == Unbounded {
		return false // cannot happen for phase 1, defensive
	}
	// Feasible iff all artificials are zero.
	for i, bi := range t.basis {
		if bi >= t.artStart && t.b[i] > Eps {
			return false
		}
	}
	// Pivot any residual artificial out of the basis if possible.
	for i, bi := range t.basis {
		if bi < t.artStart {
			continue
		}
		for j := 0; j < t.artStart; j++ {
			if math.Abs(t.a[i][j]) > Eps {
				t.pivot(i, j)
				break
			}
		}
	}
	return true
}

func (t *tableau) phase2() Status {
	cols := len(t.a[0])
	t.cost = make([]float64, cols)
	copy(t.cost, t.pOrig.C)
	// Artificials must never re-enter.
	for j := t.artStart; j < cols; j++ {
		t.cost[j] = math.Inf(-1)
	}
	return t.run()
}

// run performs simplex iterations with Bland's rule until optimal or
// unbounded, maintaining reduced costs implicitly (recomputed per pivot for
// clarity; instances here are small).
func (t *tableau) run() Status {
	for iter := 0; iter < 10000*(t.m+t.n+1); iter++ {
		// Reduced costs: c_j - c_B . column_j.
		enter := -1
		for j := 0; j < len(t.a[0]); j++ {
			if math.IsInf(t.cost[j], -1) {
				continue
			}
			rc := t.cost[j]
			for i := 0; i < t.m; i++ {
				cb := t.cost[t.basis[i]]
				if math.IsInf(cb, -1) {
					cb = 0
				}
				rc -= cb * t.a[i][j]
			}
			if rc > Eps {
				enter = j // Bland: first improving column
				break
			}
		}
		if enter < 0 {
			return Optimal
		}
		// Ratio test (Bland: smallest basis index breaks ties).
		leave := -1
		best := math.Inf(1)
		for i := 0; i < t.m; i++ {
			if t.a[i][enter] > Eps {
				ratio := t.b[i] / t.a[i][enter]
				if ratio < best-Eps || (ratio < best+Eps && (leave < 0 || t.basis[i] < t.basis[leave])) {
					best = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return Unbounded
		}
		t.pivot(leave, enter)
	}
	return Optimal // iteration cap; unreachable with Bland's rule
}

func (t *tableau) pivot(row, col int) {
	pv := t.a[row][col]
	inv := 1 / pv
	for j := range t.a[row] {
		t.a[row][j] *= inv
	}
	t.b[row] *= inv
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if math.Abs(f) <= Eps {
			continue
		}
		for j := range t.a[i] {
			t.a[i][j] -= f * t.a[row][j]
		}
		t.b[i] -= f * t.b[row]
	}
	t.basis[row] = col
}

func (t *tableau) extract() []float64 {
	x := make([]float64, t.n)
	for i, bi := range t.basis {
		if bi < t.n {
			x[bi] = t.b[i]
		}
	}
	return x
}

func (t *tableau) objective(c, x []float64) float64 {
	v := 0.0
	for j := range c {
		v += c[j] * x[j]
	}
	return v
}

func solve(t *testing.T, p Problem) *Solution {
	t.Helper()
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSimplexBadShapes(t *testing.T) {
	if _, err := Solve(Problem{C: []float64{1}, A: [][]float64{{1, 2}}, B: []float64{1}}); err == nil {
		t.Error("row width mismatch should fail")
	}
	if _, err := Solve(Problem{C: []float64{1}, A: [][]float64{{1}}, B: []float64{1, 2}}); err == nil {
		t.Error("rhs length mismatch should fail")
	}
	if _, err := Solve(Problem{C: []float64{math.NaN()}, A: nil, B: nil}); err == nil {
		t.Error("NaN objective should fail")
	}
}

func TestSimplexTextbookOptimal(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> 36 at (2, 6).
	s := solve(t, Problem{
		C: []float64{3, 5},
		A: [][]float64{{1, 0}, {0, 2}, {3, 2}},
		B: []float64{4, 12, 18},
	})
	if s.Status != Optimal || math.Abs(s.Value-36) > 1e-6 {
		t.Fatalf("status %v value %v", s.Status, s.Value)
	}
	if math.Abs(s.X[0]-2) > 1e-6 || math.Abs(s.X[1]-6) > 1e-6 {
		t.Fatalf("x = %v", s.X)
	}
}

func TestSimplexUnbounded(t *testing.T) {
	s := solve(t, Problem{C: []float64{1}, A: [][]float64{{-1}}, B: []float64{0}})
	if s.Status != Unbounded {
		t.Fatalf("status %v", s.Status)
	}
}

func TestSimplexInfeasible(t *testing.T) {
	// x <= 1 and -x <= -3 (x >= 3): infeasible.
	s := solve(t, Problem{
		C: []float64{1},
		A: [][]float64{{1}, {-1}},
		B: []float64{1, -3},
	})
	if s.Status != Infeasible {
		t.Fatalf("status %v", s.Status)
	}
}

func TestSimplexPhase1Feasible(t *testing.T) {
	// Requires phase 1: x + y >= 2 (as -x-y <= -2), x,y <= 3; max x+y = 6.
	s := solve(t, Problem{
		C: []float64{1, 1},
		A: [][]float64{{-1, -1}, {1, 0}, {0, 1}},
		B: []float64{-2, 3, 3},
	})
	if s.Status != Optimal || math.Abs(s.Value-6) > 1e-6 {
		t.Fatalf("status %v value %v x %v", s.Status, s.Value, s.X)
	}
}

func TestSimplexEqualityViaPairedInequalities(t *testing.T) {
	// x + y = 5 (two inequalities), max 2x + y with x <= 3: optimum 8 at
	// (3, 2).
	s := solve(t, Problem{
		C: []float64{2, 1},
		A: [][]float64{{1, 1}, {-1, -1}, {1, 0}},
		B: []float64{5, -5, 3},
	})
	if s.Status != Optimal || math.Abs(s.Value-8) > 1e-6 {
		t.Fatalf("status %v value %v x %v", s.Status, s.Value, s.X)
	}
}

func TestSimplexDegeneratePivotsTerminate(t *testing.T) {
	// A classically degenerate instance (Beale-like); Bland's rule must
	// terminate with the right optimum.
	s := solve(t, Problem{
		C: []float64{0.75, -150, 0.02, -6},
		A: [][]float64{
			{0.25, -60, -0.04, 9},
			{0.5, -90, -0.02, 3},
			{0, 0, 1, 0},
		},
		B: []float64{0, 0, 1},
	})
	if s.Status != Optimal || math.Abs(s.Value-0.05) > 1e-6 {
		t.Fatalf("status %v value %v", s.Status, s.Value)
	}
}

// TestSimplexRandomAgainstVertexEnumeration cross-checks simplex on random
// 2-var LPs against brute-force vertex enumeration.
func TestSimplexRandomAgainstVertexEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 200; trial++ {
		m := 2 + rng.Intn(4)
		p := Problem{C: []float64{float64(rng.Intn(11) - 5), float64(rng.Intn(11) - 5)}}
		for i := 0; i < m; i++ {
			p.A = append(p.A, []float64{float64(rng.Intn(7) - 2), float64(rng.Intn(7) - 2)})
			p.B = append(p.B, float64(rng.Intn(10)))
		}
		// Bound the region so brute force is exact and unboundedness is
		// impossible.
		p.A = append(p.A, []float64{1, 0}, []float64{0, 1})
		p.B = append(p.B, 20, 20)
		s := solve(t, p)
		if s.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, s.Status)
		}
		best := bruteForce2D(p)
		if math.Abs(s.Value-best) > 1e-5 {
			t.Fatalf("trial %d: simplex %v vs brute force %v (problem %+v)",
				trial, s.Value, best, p)
		}
		// The returned X must be feasible and achieve Value.
		for i := range p.A {
			if p.A[i][0]*s.X[0]+p.A[i][1]*s.X[1] > p.B[i]+1e-6 {
				t.Fatalf("trial %d: X %v violates row %d", trial, s.X, i)
			}
		}
		if s.X[0] < -1e-9 || s.X[1] < -1e-9 {
			t.Fatalf("trial %d: negative X %v", trial, s.X)
		}
	}
}

// bruteForce2D enumerates all constraint-pair intersections plus axis
// intersections and returns the best feasible objective.
func bruteForce2D(p Problem) float64 {
	// Add x >= 0, y >= 0 as lines too.
	type line struct{ a, b, c float64 } // a*x + b*y = c
	var lines []line
	for i := range p.A {
		lines = append(lines, line{p.A[i][0], p.A[i][1], p.B[i]})
	}
	lines = append(lines, line{1, 0, 0}, line{0, 1, 0})
	feasible := func(x, y float64) bool {
		if x < -1e-9 || y < -1e-9 {
			return false
		}
		for i := range p.A {
			if p.A[i][0]*x+p.A[i][1]*y > p.B[i]+1e-9 {
				return false
			}
		}
		return true
	}
	best := math.Inf(-1)
	for i := 0; i < len(lines); i++ {
		for j := i + 1; j < len(lines); j++ {
			det := lines[i].a*lines[j].b - lines[j].a*lines[i].b
			if math.Abs(det) < 1e-12 {
				continue
			}
			x := (lines[i].c*lines[j].b - lines[j].c*lines[i].b) / det
			y := (lines[i].a*lines[j].c - lines[j].a*lines[i].c) / det
			if feasible(x, y) {
				if v := p.C[0]*x + p.C[1]*y; v > best {
					best = v
				}
			}
		}
	}
	if feasible(0, 0) && best < 0 {
		best = 0
	}
	return best
}

func TestSimplexStatusString(t *testing.T) {
	for _, s := range []Status{Optimal, Infeasible, Unbounded, Status(9)} {
		if s.String() == "" {
			t.Errorf("empty string for %d", int(s))
		}
	}
}
