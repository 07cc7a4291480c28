package experiments

import (
	"fmt"

	"repro/internal/broken"
	"repro/internal/demand"
	"repro/internal/grid"
	"repro/internal/lpchar"
	"repro/internal/transfer"
)

// E9Broken regenerates the Figure 4.1 gap: with breakdowns allowed, the
// Theorem 4.1.1 LP bound (2*r1) diverges from the true requirement
// (Theta(r1^2)) because arrival order forces the lone healthy vehicle to
// shuttle between the demand points.
func E9Broken(r1s []int) (*Table, error) {
	t := &Table{
		ID:    "E9",
		Title: "broken vehicles: LP bound vs true requirement (Fig 4.1)",
		Columns: []string{"r1", "LP bound (Thm 4.1.1)", "true requirement",
			"travel formula r1+(2r1-1)2r1", "gap ratio"},
		Notes: "The gap ratio grows ~linearly in r1: the Chapter 4 lower bound is provably not tight.",
	}
	for _, r1 := range r1s {
		f, err := broken.NewFig41(r1, 8*r1)
		if err != nil {
			return nil, err
		}
		lp, err := f.LPBound()
		if err != nil {
			return nil, err
		}
		truth := f.TrueRequirement()
		t.AddRow(r1, lp, truth, f.TravelFormula(), truth/lp)
	}
	return t, nil
}

// E10Transfers regenerates Chapter 5 on the Section 5.2.1 one-dimensional
// setting: total demand d concentrated at the far end of an N-vertex line.
// Without transfers the required capacity is Theta(sqrt(d)) (only nearby
// vehicles can reach the hot vertex); the C=infinity convoy amortizes the
// whole line's energy, needing only ~2 + 2*a1 + d/N under fixed accounting
// and ~(2 + d/N)/(1 - 2*a2) under variable accounting — so its advantage
// grows without bound in N. The last column is the Theorem 5.1.1 decay
// bound for the C=W regime, which stays Theta(omega*): big tanks, not
// transfers per se, are what helps.
func E10Transfers(lineLens []int, d int64) (*Table, error) {
	t := &Table{
		ID:    "E10",
		Title: fmt.Sprintf("inter-vehicle energy transfers (total d=%d at line end)", d),
		Columns: []string{"N", "accounting", "convoy W (C=inf)", "avg d",
			"no-transfer omega*", "convoy gain", "Thm 5.1.1 bound (C=W)"},
		Notes: "Convoy W tracks 2 + 2*a1 + d/N under fixed accounting (a1 = 1 per transfer) and (2 + d/N)/(1 - 2*a2) under variable accounting (a2 = 0.01 per unit), while the no-transfer omega* stays ~sqrt(d/2): the C=inf gain grows with N. The C=W decay bound stays Theta(omega*).",
	}
	// The no-transfer and C=W characterizations depend only on the demand
	// concentration, not N; compute them once on the 1-D point mass (and
	// its 2-D embedding for the square decay bound).
	m1, err := demand.PointMass(1, grid.P(0), d)
	if err != nil {
		return nil, err
	}
	omegaStar, err := lpchar.OmegaStarFlow(m1)
	if err != nil {
		return nil, err
	}
	m2, err := demand.PointMass(2, grid.P(0, 0), d)
	if err != nil {
		return nil, err
	}
	decayBound, err := transfer.LowerBoundSquares(m2)
	if err != nil {
		return nil, err
	}
	for _, n := range lineLens {
		demands := make([]int64, n)
		demands[n-1] = d
		for _, acct := range []transfer.Accounting{transfer.FixedCost, transfer.VariableCost} {
			res, err := transfer.Convoy(transfer.ConvoyParams{
				Demands: demands, Accounting: acct, A1: 1, A2: 0.01,
			})
			if err != nil {
				return nil, err
			}
			if res.Slack < -1e-6 {
				return nil, fmt.Errorf("experiments: convoy infeasible at N=%d", n)
			}
			avg := float64(d) / float64(n)
			t.AddRow(n, acct.String(), res.W, avg, omegaStar,
				omegaStar/res.W, decayBound)
		}
	}
	return t, nil
}

// All runs every experiment with the default deterministic parameters of
// `go run ./cmd/experiments` and returns the tables in index order. quick
// shrinks the instance sizes (used by tests; the full set runs in
// cmd/experiments).
// workers is the sweep width threaded through the sweep-built experiments
// (E5, E7, E11, E13, E14, E15): every table is byte-identical for every
// width, so it only changes wall-clock (cmd/experiments pins a default).
// shards is online.Options.SimShards for every simulator-backed experiment
// (E7, E8, E11, E13, E14, E15): 0 keeps the legacy scheduler of the default
// `go run ./cmd/experiments` tables; any value >= 1 selects the sealed-round
// scheduler, whose tables are byte-identical for every such value — the CI
// determinism gate diffs -shards 1 against -shards 8.
func All(quick bool, workers, shards int) ([]*Table, error) {
	return Some("", quick, workers, shards)
}

// Some is All restricted to one experiment id ("" runs everything): only the
// selected experiment is computed, so cmd/experiments -run and the CI
// single-experiment smoke steps don't pay for the other twelve. Returns an
// empty slice for an unknown id.
func Some(id string, quick bool, workers, shards int) ([]*Table, error) {
	var (
		squareSides = []int{4, 16, 64, 256}
		lineDs      = []int64{8, 32, 128, 512}
		pointDs     = []int64{64, 1024, 16384, 262144}
		e4Trials    = 25
		e5N, e5Jobs = 64, int64(3000)
		e6Sizes     = []int{64, 128, 256, 512}
		e7N, e7Jobs = 16, int64(300)
		e8Sides     = []int{2, 4, 6, 8}
		e9R1s       = []int{2, 4, 8, 16, 32}
		e10Lens     = []int{128, 512, 2048}
		e10D        = int64(2500)
		e14Fracs    = []float64{0, 0.25, 0.5}
		e15Fanouts  = []int{-1, 0, 1, 2, 3}
	)
	if quick {
		squareSides = []int{4, 16}
		lineDs = []int64{8, 32}
		pointDs = []int64{64, 1024}
		e4Trials = 6
		e5N, e5Jobs = 32, 800
		e6Sizes = []int{32, 64}
		e7N, e7Jobs = 8, 80
		e8Sides = []int{2, 4}
		e9R1s = []int{2, 4}
		e10Lens = []int{128, 512}
		e14Fracs = []float64{0, 0.5}
		e15Fanouts = []int{-1, 0, 2}
	}
	const seed = 2008 // the thesis' year, for reproducibility flavor
	var tables []*Table
	for _, exp := range []struct {
		id    string
		build func() (*Table, error)
	}{
		{"E1", func() (*Table, error) { return E1Square(squareSides, 32) }},
		{"E2", func() (*Table, error) { return E2Line(lineDs, 256) }},
		{"E3", func() (*Table, error) { return E3Point(pointDs) }},
		{"E4", func() (*Table, error) { return E4Duality(e4Trials, seed) }},
		{"E5", func() (*Table, error) { return E5ApproxQuality(e5N, e5Jobs, seed, workers) }},
		{"E6", func() (*Table, error) { return E6Runtime(e6Sizes, seed) }},
		{"E7", func() (*Table, error) { return E7Online(e7N, e7Jobs, seed, workers, shards) }},
		{"E8", func() (*Table, error) { return E8Diffusion(e8Sides, seed, shards) }},
		{"E9", func() (*Table, error) { return E9Broken(e9R1s) }},
		{"E10", func() (*Table, error) { return E10Transfers(e10Lens, e10D) }},
		{"E11", func() (*Table, error) { return E11Ablations(e7N, e7Jobs, seed, workers, shards) }},
		{"E12", func() (*Table, error) { return E12DimensionSweep(4000) }},
		{"E13", func() (*Table, error) { return E13Robustness([]float64{0, 0.25, 0.5, 1}, seed, workers, shards) }},
		{"E14", func() (*Table, error) { return E14FailureModels(e14Fracs, seed, workers, shards) }},
		{"E15", func() (*Table, error) { return E15GossipFidelity(e15Fanouts, seed, workers, shards) }},
	} {
		if id != "" && exp.id != id {
			continue
		}
		tbl, err := exp.build()
		if err != nil {
			return nil, err
		}
		tables = append(tables, tbl)
	}
	return tables, nil
}
