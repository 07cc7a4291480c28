package lpchar

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/demand"
	"repro/internal/grid"
)

// maxSimplexArcs bounds the explicit LP's size.
const maxSimplexArcs = 4000

// SimplexValue solves LP (2.1) by building it *explicitly* — variables
// omega and one flow f_ij per (supplier, demand) arc within radius r — and
// running the dense simplex solver. It is deliberately the most literal
// transcription of the thesis' program, used as a third independent check
// against FlowValue (combinatorial) and SubsetValue (the Lemma 2.2.2 closed
// form) on small instances.
//
// Standard form: maximize -omega subject to
//
//	sum_j f_ij - omega <= 0        (supplier capacity, one row per i)
//	-sum_i f_ij <= -d(j)           (demand coverage, one row per j)
//	all variables >= 0.
func SimplexValue(m *demand.Map, r int) (float64, error) {
	if m.Total() == 0 {
		return 0, nil
	}
	support := m.Support()
	var sup supplyIndex
	if err := sup.build(m, r, support); err != nil {
		return 0, err
	}
	suppliers := sup.suppliers
	deltas := sup.ballOffsets(m.Dim(), r)
	type arc struct{ i, j int }
	var arcs []arc
	for j, q := range support {
		for _, d := range deltas {
			if i := sup.supplierAt(q.Add(d)); i >= 0 {
				arcs = append(arcs, arc{i: int(i), j: j})
			}
		}
	}
	if len(arcs) > maxSimplexArcs {
		return 0, fmt.Errorf("%w: %d arcs > %d", ErrTooLarge, len(arcs), maxSimplexArcs)
	}
	// Variable layout: x[0] = omega, x[1+k] = flow on arcs[k].
	nVars := 1 + len(arcs)
	prob := Problem{C: make([]float64, nVars)}
	prob.C[0] = -1 // maximize -omega
	// Supplier rows.
	for i := range suppliers {
		row := make([]float64, nVars)
		row[0] = -1
		for k, a := range arcs {
			if a.i == i {
				row[1+k] = 1
			}
		}
		prob.A = append(prob.A, row)
		prob.B = append(prob.B, 0)
	}
	// Demand rows.
	for j, q := range support {
		row := make([]float64, nVars)
		for k, a := range arcs {
			if a.j == j {
				row[1+k] = -1
			}
		}
		prob.A = append(prob.A, row)
		prob.B = append(prob.B, -float64(m.At(q)))
	}
	sol, err := Solve(prob)
	if err != nil {
		return 0, err
	}
	switch sol.Status {
	case Optimal:
		return -sol.Value, nil
	case Infeasible:
		// Cannot happen: every demand point is its own supplier, so omega =
		// max d is always feasible. Surface it as a bug.
		return 0, fmt.Errorf("lpchar: explicit LP infeasible (radius %d)", r)
	default:
		return 0, fmt.Errorf("lpchar: explicit LP %v (radius %d)", sol.Status, r)
	}
}

// TestThreeWayAgreement is the strongest form of the E4 duality check: the
// combinatorial solver (binary search + Dinic), the Lemma 2.2.2 closed form
// (subset enumeration), and the literal simplex transcription of LP (2.1)
// must all agree.
func TestThreeWayAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 25; trial++ {
		dim := 1 + rng.Intn(2)
		m := demand.NewMap(dim)
		points := 2 + rng.Intn(4)
		for i := 0; i < points; i++ {
			var p grid.Point
			for a := 0; a < dim; a++ {
				p[a] = int32(rng.Intn(5))
			}
			if err := m.Add(p, 1+rng.Int63n(15)); err != nil {
				t.Fatal(err)
			}
		}
		r := rng.Intn(3)
		flowV, err := FlowValue(m, r)
		if err != nil {
			t.Fatal(err)
		}
		subsetV, err := SubsetValue(m, r)
		if err != nil {
			t.Fatal(err)
		}
		simplexV, err := SimplexValue(m, r)
		if err != nil {
			t.Fatal(err)
		}
		tol := 1e-6 * math.Max(1, subsetV)
		if math.Abs(flowV-simplexV) > tol || math.Abs(subsetV-simplexV) > tol {
			t.Errorf("trial %d (dim %d r %d): flow %v subset %v simplex %v",
				trial, dim, r, flowV, subsetV, simplexV)
		}
	}
}

func TestSimplexValueEmpty(t *testing.T) {
	if v, err := SimplexValue(demand.NewMap(2), 2); err != nil || v != 0 {
		t.Errorf("empty: %v %v", v, err)
	}
}

func TestSimplexValueSinglePointExact(t *testing.T) {
	// d at one point, radius r: value must be d / |ball(r)| exactly.
	m, err := demand.PointMass(2, grid.P(0, 0), 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{0, 1, 2} {
		ball := float64(2*r*r + 2*r + 1)
		got, err := SimplexValue(m, r)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-100/ball) > 1e-9 {
			t.Errorf("r=%d: %v, want %v", r, got, 100/ball)
		}
	}
}

func TestSimplexValueTooLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b, err := grid.NewBox(2, grid.P(0, 0), grid.P(30, 30))
	if err != nil {
		t.Fatal(err)
	}
	m, err := demand.Uniform(rng, b, 500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SimplexValue(m, 4); !errors.Is(err, ErrTooLarge) {
		t.Errorf("want ErrTooLarge, got %v", err)
	}
}
