// Package transfer reproduces thesis Chapter 5: CMVRP with inter-vehicle
// energy transfers. Vehicle A may hand energy to vehicle B when co-located,
// under one of two accounting methods (fixed cost per transfer, or variable
// cost per unit transferred). The package implements:
//
//   - the decay lower bound of Theorem 5.1.1 (moving energy distance d
//     retains at most a (1-1/W)^d fraction), with the square-import budget
//     used to show Wtrans-off = Theta(Woff) when tanks equal capacity;
//   - the Section 5.2.1 convoy strategy on a line with unbounded tanks
//     (C = infinity), where one vehicle sweeps, consolidates, and
//     redistributes — achieving Wtrans-off = Theta(avg demand), an
//     arbitrarily large improvement over the no-transfer case;
//   - a step-by-step convoy simulator that cross-checks the thesis' closed
//     forms for both accounting methods.
package transfer

import (
	"fmt"
	"math"

	"repro/internal/demand"
	"repro/internal/grid"
)

// Accounting selects how transfers are charged (Chapter 5 intro).
type Accounting int

// Transfer accounting methods.
const (
	// FixedCost charges a1 units per transfer regardless of amount.
	FixedCost Accounting = iota + 1
	// VariableCost charges a2 units per unit of energy transferred.
	VariableCost
)

// String implements fmt.Stringer.
func (a Accounting) String() string {
	switch a {
	case FixedCost:
		return "fixed"
	case VariableCost:
		return "variable"
	default:
		return fmt.Sprintf("Accounting(%d)", int(a))
	}
}

// Retention returns the thesis' decay factor: the largest fraction of W
// units of energy that survives being moved a given distance when no tank
// can hold more than W (Theorem 5.1.1's computation).
func Retention(w float64, dist int) float64 {
	if w <= 1 || dist < 0 {
		return 0
	}
	return math.Pow(1-1/w, float64(dist))
}

// SquareImportBudget returns the Theorem 5.1.1 budget: the total energy that
// can ever be brought into (plus held inside) an s x s square when every
// vehicle starts with W, counting the geometric decay of imports:
//
//	W * (s^2 + 4W^2 + 4sW - 8W - 4s + 4)
func SquareImportBudget(w float64, s int) float64 {
	sf := float64(s)
	return w * (sf*sf + 4*w*w + 4*sf*w - 8*w - 4*sf + 4)
}

// LowerBoundSquares computes the Theorem 5.1.1 lower bound on Wtrans-off:
// the smallest W whose import budget covers every square's demand, searched
// over all squares inside the support's bounding box. By the theorem this is
// Omega(max_T omega_T) = Omega(Woff), so transfers never help by more than a
// constant factor when tanks equal the initial charge.
func LowerBoundSquares(m *demand.Map) (float64, error) {
	if m.Dim() != 2 {
		return 0, fmt.Errorf("transfer: square bound is 2-D only, got dim %d", m.Dim())
	}
	if m.Total() == 0 {
		return 0, nil
	}
	bbox, ok := m.BoundingBox()
	if !ok {
		return 0, nil
	}
	maxSide := int(bbox.Side(0))
	if s1 := int(bbox.Side(1)); s1 > maxSide {
		maxSide = s1
	}
	best := 0.0
	// For each square size, only the maximum-demand square matters (the
	// budget is independent of position).
	for s := 1; s <= maxSide; s++ {
		var maxSum int64
		for x := int(bbox.Lo[0]); x+s-1 <= int(bbox.Hi[0]); x++ {
			for y := int(bbox.Lo[1]); y+s-1 <= int(bbox.Hi[1]); y++ {
				sq, err := grid.NewBox(2, grid.P(x, y), grid.P(x+s-1, y+s-1))
				if err != nil {
					return 0, err
				}
				if v := m.SumIn(sq); v > maxSum {
					maxSum = v
				}
			}
		}
		if maxSum == 0 {
			continue
		}
		// Smallest W with SquareImportBudget(W, s) >= maxSum, by bisection
		// (the budget is increasing in W for W >= 1).
		lo, hi := 0.0, 1.0
		for SquareImportBudget(hi, s) < float64(maxSum) {
			hi *= 2
			if hi > 1e15 {
				return 0, fmt.Errorf("transfer: budget search diverged for s=%d", s)
			}
		}
		for iter := 0; iter < 80 && hi-lo > 1e-9*hi; iter++ {
			mid := (lo + hi) / 2
			if SquareImportBudget(mid, s) >= float64(maxSum) {
				hi = mid
			} else {
				lo = mid
			}
		}
		if hi > best {
			best = hi
		}
	}
	return best, nil
}

// ConvoyParams configures the Section 5.2.1 line convoy.
type ConvoyParams struct {
	// Demands lists d(x) for vertices 1..N of the line (index 0 = vertex 1).
	Demands []int64
	// Accounting selects the transfer charging model.
	Accounting Accounting
	// A1 is the per-transfer charge (FixedCost); A2 the per-unit charge
	// (VariableCost, must be < 1/2 - the thesis assumes a2 << 1).
	A1, A2 float64
}

// ConvoyResult reports both the closed form and the simulation outcome.
type ConvoyResult struct {
	// W is the minimal uniform initial energy per the thesis' closed form.
	W float64
	// EnergyTotal is the total energy the closed form says the run consumes.
	EnergyTotal float64
	// Transfers and Distance are the simulator's counts (thesis: 2N-3
	// transfers, 2N-2 distance).
	Transfers int
	Distance  int
	// Slack is the simulated leftover energy across all vehicles at the end
	// (>= 0 proves feasibility of W).
	Slack float64
}

// Convoy evaluates the Section 5.2.1 strategy: vehicle 1 sweeps right
// collecting every vehicle's energy, exchanges with vehicle N, then sweeps
// back distributing exactly what each vertex's jobs need. It returns the
// closed-form W and cross-checks it by simulating the sweep step by step
// with unbounded tanks (C = infinity).
func Convoy(p ConvoyParams) (*ConvoyResult, error) {
	n := len(p.Demands)
	if n < 3 {
		return nil, fmt.Errorf("transfer: convoy needs at least 3 vertices, got %d", n)
	}
	var sumD int64
	for i, d := range p.Demands {
		if d < 0 {
			return nil, fmt.Errorf("transfer: negative demand %d at vertex %d", d, i+1)
		}
		sumD += d
	}
	nf := float64(n)
	var w, total float64
	switch p.Accounting {
	case FixedCost:
		if !(p.A1 >= 0) || math.IsInf(p.A1, 1) {
			return nil, fmt.Errorf("transfer: a1 %v must be finite and >= 0", p.A1)
		}
		total = p.A1*(2*nf-3) + (2*nf - 2) + float64(sumD)
		w = total / nf
	case VariableCost:
		if !(p.A2 >= 0 && p.A2 < 0.5) {
			return nil, fmt.Errorf("transfer: a2 %v must be in [0, 0.5)", p.A2)
		}
		w = (2*nf - 2 + float64(sumD)) / (nf - 2*p.A2*nf + 3*p.A2)
		total = w * nf
	default:
		return nil, fmt.Errorf("transfer: unknown accounting %v", p.Accounting)
	}
	res := &ConvoyResult{W: w, EnergyTotal: total}
	if err := simulateConvoy(p, w, res); err != nil {
		return nil, err
	}
	return res, nil
}

// simulateConvoy executes the sweep with every vehicle initially holding w
// and verifies no balance goes negative, counting transfers and distance.
func simulateConvoy(p ConvoyParams, w float64, res *ConvoyResult) error {
	n := len(p.Demands)
	bal := make([]float64, n) // energy held at each vertex's vehicle
	for i := range bal {
		bal[i] = w
	}
	charge := func(amount float64) float64 {
		if p.Accounting == FixedCost {
			return p.A1
		}
		return p.A2 * amount
	}
	carrier := bal[0] // vehicle 1's tank (infinite capacity)
	pos := 0
	step := func(to int) {
		res.Distance += int(math.Abs(float64(to - pos)))
		carrier -= math.Abs(float64(to - pos))
		pos = to
	}
	// Outbound: collect from vertices 2..N-1.
	for v := 1; v <= n-2; v++ {
		step(v)
		amt := bal[v]
		carrier += amt - charge(amt)
		bal[v] = 0
		res.Transfers++
	}
	// At N: exchange so that vehicle N holds exactly its own demand. The
	// flow may go either way; the fee is on the amount moved.
	step(n - 1)
	need := float64(p.Demands[n-1])
	amt := bal[n-1] - need // positive: carrier takes; negative: carrier gives
	carrier += amt - charge(math.Abs(amt))
	bal[n-1] = need
	res.Transfers++
	// Return: distribute exact demands to N-1..2.
	for v := n - 2; v >= 1; v-- {
		step(v)
		needV := float64(p.Demands[v])
		carrier -= needV + charge(needV)
		bal[v] = needV
		res.Transfers++
	}
	step(0)
	// Vehicle 1 keeps its own demand.
	carrier -= float64(p.Demands[0])
	if carrier < -1e-6 {
		return fmt.Errorf("transfer: convoy with W=%v runs out of energy (%v short)", w, -carrier)
	}
	res.Slack = carrier
	return nil
}
