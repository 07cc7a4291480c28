package transfer

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/demand"
	"repro/internal/grid"
	"repro/internal/lpchar"
)

func TestSquareImportBudgetMatchesExpansion(t *testing.T) {
	// The budget is W*(s^2 + 4W^2 + 4sW - 8W - 4s + 4); spot-check the
	// algebra against a direct evaluation.
	for _, tc := range []struct {
		w float64
		s int
	}{{2, 1}, {5, 3}, {10, 8}} {
		sf := float64(tc.s)
		want := tc.w * (sf*sf + 4*tc.w*tc.w + 4*sf*tc.w - 8*tc.w - 4*sf + 4)
		if got := SquareImportBudget(tc.w, tc.s); math.Abs(got-want) > 1e-9 {
			t.Errorf("budget(%v,%d) = %v, want %v", tc.w, tc.s, got, want)
		}
	}
}

// TestTransfersDontBeatWoffByMoreThanConstant reproduces Theorem 5.1.1's
// conclusion: the transfer lower bound is Omega(omega*) — same order as Woff
// — so with tanks equal to initial charge, transfers buy at most a constant.
func TestTransfersDontBeatWoffByMoreThanConstant(t *testing.T) {
	for _, d := range []int64{100, 1000, 10000} {
		m, err := demand.PointMass(2, grid.P(0, 0), d)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := LowerBoundSquares(m)
		if err != nil {
			t.Fatal(err)
		}
		omegaStar, err := lpchar.OmegaStarFlow(m)
		if err != nil {
			t.Fatal(err)
		}
		if lb <= 0 {
			t.Fatalf("d=%d: nonpositive transfer bound", d)
		}
		ratio := omegaStar / lb
		// Theta relationship: ratio bounded both ways by modest constants.
		if ratio < 0.2 || ratio > 20 {
			t.Errorf("d=%d: omega* %v vs transfer bound %v (ratio %v) not same order",
				d, omegaStar, lb, ratio)
		}
	}
}

// TestLowerBoundSquaresValidation pins the refused inputs: a map that is
// not 2-D, and a support whose bounding box holds more than 2^22 cells,
// whose summed-area table would not fit a dense array. The last row spans
// the whole int32 axis, where a box side computed in int32 wraps.
func TestLowerBoundSquaresValidation(t *testing.T) {
	if _, err := LowerBoundSquares(demand.NewMap(1)); err == nil {
		t.Error("non-2D should fail")
	}
	if v, err := LowerBoundSquares(demand.NewMap(2)); err != nil || v != 0 {
		t.Errorf("empty: %v %v", v, err)
	}
	for _, far := range [][2]grid.Point{
		{grid.P(0, 0), grid.P(2048, 2047)},
		{grid.P(-2147483648, 0), grid.P(2147483647, 0)},
	} {
		m := demand.NewMap(2)
		for _, p := range far {
			if err := m.Add(p, 1); err != nil {
				t.Fatal(err)
			}
		}
		if v, err := LowerBoundSquares(m); err == nil {
			t.Errorf("support %v: bound %v, want an error past 2^22 cells", far, v)
		}
	}
}

// scanLowerBound is LowerBoundSquares as it stood before the summed-area
// table: it sums every square of every side with Map.SumIn, O(S^3·k) for a
// bounding box of side S and k demand cells, and runs its own bracket and
// bisection on the budget. It is the reference for the table.
func scanLowerBound(m *demand.Map) (float64, error) {
	bbox, ok := m.BoundingBox()
	if !ok {
		return 0, nil
	}
	maxSide := int(max(bbox.Side(0), bbox.Side(1)))
	best := 0.0
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
		best = max(best, hi)
	}
	return best, nil
}

// TestLowerBoundSquaresMatchesScan pins the summed-area table to the
// square-by-square scan it replaced, with ==, on 400 random 2-D supports:
// bounding boxes up to 12x12 at offsets within ±20, up to 30 demand cells
// of up to 3, 100 or 100,000 jobs each.
func TestLowerBoundSquaresMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 400; trial++ {
		w, h := 1+rng.Intn(12), 1+rng.Intn(12)
		x0, y0 := rng.Intn(41)-20, rng.Intn(41)-20
		jobs := []int64{3, 100, 100000}[rng.Intn(3)]
		m := demand.NewMap(2)
		for k := 1 + rng.Intn(30); k > 0; k-- {
			if err := m.Add(grid.P(x0+rng.Intn(w), y0+rng.Intn(h)), 1+rng.Int63n(jobs)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := LowerBoundSquares(m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := scanLowerBound(m)
		if err != nil {
			t.Fatalf("trial %d: scan: %v", trial, err)
		}
		if got != want {
			t.Fatalf("trial %d: bound %v, scan %v", trial, got, want)
		}
	}
}

// TestLowerBoundSquaresStopsEarly runs the bound on far-apart supports,
// each under a 5 s deadline: it stops at the first side whose budget just
// under the best W covers the total, since no later side can beat that W.
// Two points at opposite corners of a 2048x2048 box, the 2^22-cell cap,
// took 16.6 s when every side was scanned; each of their squares holds at
// most one job, so the bound is side 1's W = 1. The smaller rows are
// checked against the square-by-square scan with ==.
func TestLowerBoundSquaresStopsEarly(t *testing.T) {
	for _, tc := range []struct {
		pts  []grid.Point
		jobs int64
		want float64 // 0: the scan's answer
	}{
		{[]grid.Point{grid.P(0, 0), grid.P(2047, 2047)}, 1, 1},
		{[]grid.Point{grid.P(-5, 7), grid.P(58, 70)}, 1, 0},
		{[]grid.Point{grid.P(0, 0), grid.P(40, 0), grid.P(0, 40), grid.P(40, 40)}, 30, 0},
		{[]grid.Point{grid.P(3, 3)}, 1000, 0},
	} {
		m := demand.NewMap(2)
		for _, p := range tc.pts {
			if err := m.Add(p, tc.jobs); err != nil {
				t.Fatal(err)
			}
		}
		want := tc.want
		if want == 0 {
			var err error
			if want, err = scanLowerBound(m); err != nil {
				t.Fatal(err)
			}
		}
		type answer struct {
			v   float64
			err error
		}
		done := make(chan answer, 1)
		go func() {
			v, err := LowerBoundSquares(m)
			done <- answer{v, err}
		}()
		select {
		case a := <-done:
			if a.err != nil || a.v != want {
				t.Errorf("support %v: bound %v, %v; want %v", tc.pts, a.v, a.err, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("support %v: still running after 5s", tc.pts)
		}
	}
}

func TestConvoyValidation(t *testing.T) {
	if _, err := Convoy(ConvoyParams{Demands: []int64{1, 2}, Accounting: FixedCost}); err == nil {
		t.Error("too few vertices should fail")
	}
	if _, err := Convoy(ConvoyParams{Demands: []int64{1, -2, 3}, Accounting: FixedCost}); err == nil {
		t.Error("negative demand should fail")
	}
	if _, err := Convoy(ConvoyParams{Demands: []int64{1, 2, 3}, Accounting: FixedCost, A1: -1}); err == nil {
		t.Error("negative a1 should fail")
	}
	if _, err := Convoy(ConvoyParams{Demands: []int64{1, 2, 3}, Accounting: VariableCost, A2: 0.7}); err == nil {
		t.Error("a2 >= 0.5 should fail")
	}
	if _, err := Convoy(ConvoyParams{Demands: []int64{1, 2, 3}, Accounting: Accounting(9)}); err == nil {
		t.Error("unknown accounting should fail")
	}
}

func TestConvoyFixedCostMatchesThesisFormula(t *testing.T) {
	n := 50
	demands := make([]int64, n)
	for i := range demands {
		demands[i] = int64(3 + i%5)
	}
	var sumD int64
	for _, d := range demands {
		sumD += d
	}
	res, err := Convoy(ConvoyParams{Demands: demands, Accounting: FixedCost, A1: 2})
	if err != nil {
		t.Fatal(err)
	}
	nf := float64(n)
	wantW := (2*(2*nf-3) + (2*nf - 2) + float64(sumD)) / nf
	if math.Abs(res.W-wantW) > 1e-9 {
		t.Errorf("W = %v, thesis formula %v", res.W, wantW)
	}
	if res.Transfers != 2*n-3 {
		t.Errorf("transfers %d, thesis says %d", res.Transfers, 2*n-3)
	}
	if res.Distance != 2*n-2 {
		t.Errorf("distance %d, thesis says %d", res.Distance, 2*n-2)
	}
	// Fixed-cost accounting is exact: the simulation should end with ~zero
	// slack (every joule of N*W accounted for).
	if math.Abs(res.Slack) > 1e-6 {
		t.Errorf("slack %v, want ~0 for the exact fixed-cost formula", res.Slack)
	}
}

func TestConvoyVariableCostFeasibleWithSlack(t *testing.T) {
	n := 40
	demands := make([]int64, n)
	for i := range demands {
		demands[i] = 5
	}
	res, err := Convoy(ConvoyParams{Demands: demands, Accounting: VariableCost, A2: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// The thesis charges every transfer as if it moved W units; actual
	// distribution transfers move only d(x) <= W, so the formula's W is
	// feasible with nonnegative slack.
	if res.Slack < -1e-6 {
		t.Errorf("variable-cost convoy infeasible: slack %v", res.Slack)
	}
	if res.Transfers != 2*n-3 || res.Distance != 2*n-2 {
		t.Errorf("transfers=%d distance=%d", res.Transfers, res.Distance)
	}
}

// TestConvoyIsThetaAvgDemand is the Section 5.2.1 headline: with C =
// infinity the required initial charge is Theta(avg demand) — it converges
// to the thesis' exact limits as N grows: 2*a1 + 2 + avg for fixed-cost
// accounting and (2 + avg)/(1 - 2*a2) for variable-cost.
func TestConvoyIsThetaAvgDemand(t *testing.T) {
	const (
		avg = int64(20)
		a1  = 1.0
		a2  = 0.01
	)
	limits := map[Accounting]float64{
		FixedCost:    2*a1 + 2 + float64(avg),
		VariableCost: (2 + float64(avg)) / (1 - 2*a2),
	}
	for _, acct := range []Accounting{FixedCost, VariableCost} {
		prevGap := math.Inf(1)
		for _, n := range []int{10, 100, 1000} {
			demands := make([]int64, n)
			for i := range demands {
				demands[i] = avg
			}
			res, err := Convoy(ConvoyParams{
				Demands: demands, Accounting: acct, A1: a1, A2: a2,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Theta(avg): within a small constant factor of avg throughout.
			if res.W < float64(avg) || res.W > 3*float64(avg) {
				t.Errorf("%v n=%d: W=%v not Theta(avg=%d)", acct, n, res.W, avg)
			}
			gap := math.Abs(res.W - limits[acct])
			if gap >= prevGap {
				t.Errorf("%v n=%d: |W-limit| = %v did not shrink (prev %v)",
					acct, n, gap, prevGap)
			}
			prevGap = gap
		}
		if prevGap > 0.2 {
			t.Errorf("%v: W=%v does not converge to the thesis limit %v",
				acct, prevGap+limits[acct], limits[acct])
		}
	}
}

func TestConvoyCarrierGivesToVehicleN(t *testing.T) {
	// Vehicle N demands more than its own initial charge: the exchange must
	// flow from the carrier to N, not fail.
	demands := []int64{0, 0, 0, 0, 100}
	res, err := Convoy(ConvoyParams{Demands: demands, Accounting: FixedCost, A1: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slack < -1e-6 {
		t.Errorf("slack %v", res.Slack)
	}
}

func TestAccountingString(t *testing.T) {
	for _, a := range []Accounting{FixedCost, VariableCost, Accounting(7)} {
		if a.String() == "" {
			t.Errorf("empty string for %d", int(a))
		}
	}
}
