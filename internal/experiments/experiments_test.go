package experiments

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/grid"
)

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not a float: %v", s, err)
	}
	return v
}

func TestE1SquareOmegaApproachesD(t *testing.T) {
	tbl, err := E1Square([]int{4, 64, 1024}, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows %d", len(tbl.Rows))
	}
	// omega/d in the last column must increase toward 1 as a grows.
	prev := 0.0
	for _, row := range tbl.Rows {
		r := parseF(t, row[4])
		if r <= prev || r > 1.0+1e-9 {
			t.Fatalf("omega/d sequence broken: %v after %v", r, prev)
		}
		prev = r
	}
	if prev < 0.85 {
		t.Errorf("omega/d = %v at a=1024; should approach 1", prev)
	}
}

func TestE2LineStrategyFeasibleAndSqrtScaling(t *testing.T) {
	tbl, err := E2Line([]int64{8, 32, 128, 512}, 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if row[4] != "true" {
			t.Errorf("d=%s: 2*W2 strategy reported infeasible", row[0])
		}
	}
	// Quadrupling d should roughly double W2 (sqrt scaling).
	w2a, w2b := parseF(t, tbl.Rows[0][1]), parseF(t, tbl.Rows[1][1])
	if ratio := w2b / w2a; ratio < 1.7 || ratio > 2.3 {
		t.Errorf("W2 scaling ratio %v, want ~2 for 4x demand", ratio)
	}
}

func TestE3PointStrategyFeasibleAndCbrtScaling(t *testing.T) {
	tbl, err := E3Point([]int64{64, 4096, 262144})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if row[4] != "true" {
			t.Errorf("d=%s: 3*W3 strategy reported infeasible", row[0])
		}
	}
	// 64x demand should ~4x W3 (cube-root scaling).
	w3a, w3b := parseF(t, tbl.Rows[0][1]), parseF(t, tbl.Rows[1][1])
	if ratio := w3b / w3a; ratio < 3.3 || ratio > 4.7 {
		t.Errorf("W3 scaling ratio %v, want ~4 for 64x demand", ratio)
	}
}

func TestE4AllTrialsAgree(t *testing.T) {
	tbl, err := E4Duality(10, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if row[7] != "true" {
			t.Errorf("trial %s: flow and subset values disagree (%s vs %s)",
				row[0], row[4], row[5])
		}
	}
}

func TestE5RatiosWithinBound(t *testing.T) {
	tbl, err := E5ApproxQuality(32, 800, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		ratio := parseF(t, row[5])
		bound := parseF(t, row[6])
		if ratio > bound+4 { // +4 integer-budget slack, as in offline tests
			t.Errorf("%s: schedule ratio %v exceeds bound %v", row[0], ratio, bound)
		}
	}
}

// TestE6SumsPerCellWithinBound checks E6's claim on every row of the quick
// and full tables, in integers: Algorithm 1 read at least one cube sum, and
// at most cells/(2^l-1) of them (l = 2), so its work is linear in the arena.
func TestE6SumsPerCellWithinBound(t *testing.T) {
	const l = 2
	for _, quick := range []bool{true, false} {
		tables, err := Some("E6", quick, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tables[0].Rows {
			cells, err := strconv.ParseInt(row[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			sums, err := strconv.ParseInt(row[3], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			if sums <= 0 || sums*(1<<l-1) > cells {
				t.Errorf("quick=%v, n=%s: %d cube sums over %d cells, want (0, 1/%d] per cell",
					quick, row[0], sums, cells, 1<<l-1)
			}
		}
	}
}

func TestE7WonWithinTheoremBound(t *testing.T) {
	tbl, err := E7Online(8, 80, 13, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		won := parseF(t, row[2])
		bound := parseF(t, row[4])
		if won > bound*1.05 {
			t.Errorf("%s: Won %v exceeds theorem bound %v", row[0], won, bound)
		}
	}
}

func TestE8MessagesScaleWithCube(t *testing.T) {
	tbl, err := E8Diffusion([]int{2, 6}, 17, 0)
	if err != nil {
		t.Fatal(err)
	}
	small := parseF(t, tbl.Rows[0][7])
	large := parseF(t, tbl.Rows[1][7])
	if large <= small {
		t.Errorf("msgs/replacement should grow with cube size: %v -> %v", small, large)
	}
}

func TestE9GapGrows(t *testing.T) {
	tbl, err := E9Broken([]int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if parseF(t, tbl.Rows[1][4]) <= parseF(t, tbl.Rows[0][4]) {
		t.Error("gap ratio must grow with r1")
	}
}

func TestE10ConvoyGainGrowsWithN(t *testing.T) {
	tbl, err := E10Transfers([]int{128, 1024}, 2500)
	if err != nil {
		t.Fatal(err)
	}
	// Rows come in (N, fixed), (N, variable) order; compare fixed rows.
	gainSmall := parseF(t, tbl.Rows[0][5])
	gainLarge := parseF(t, tbl.Rows[2][5])
	if gainLarge <= gainSmall {
		t.Errorf("gain should grow with N: %v -> %v", gainSmall, gainLarge)
	}
	if gainLarge <= 1 {
		t.Errorf("at N=1024 the convoy must beat no-transfer, gain %v", gainLarge)
	}
	// The C=W decay bound stays the same order as omega* regardless of N.
	omega := parseF(t, tbl.Rows[0][4])
	decay := parseF(t, tbl.Rows[0][6])
	if decay < omega/20 || decay > omega*20 {
		t.Errorf("decay bound %v not Theta(omega* %v)", decay, omega)
	}
}

func TestAllQuickRunsEverything(t *testing.T) {
	tables, err := All(true, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 15 {
		t.Fatalf("got %d tables, want 15", len(tables))
	}
	ids := map[string]bool{}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: empty table", tbl.ID)
		}
		ids[tbl.ID] = true
		md := tbl.Markdown()
		if !strings.Contains(md, tbl.Title) || !strings.Contains(md, "| --- |") {
			t.Errorf("%s: malformed markdown", tbl.ID)
		}
	}
	for i := 1; i <= 15; i++ {
		id := "E" + strconv.Itoa(i)
		if !ids[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
}

func TestE13MonitoringServesEverything(t *testing.T) {
	tbl, err := E13Robustness([]float64{0, 1}, 5, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if !strings.HasPrefix(row[2], "50/") {
			t.Errorf("fraction %s: monitoring-on served %s, want all 50", row[0], row[2])
		}
	}
	// With every initiator failing and no monitoring, service must degrade.
	last := tbl.Rows[len(tbl.Rows)-1]
	if strings.HasPrefix(last[1], "50/") {
		t.Error("monitoring-off at fraction 1 should drop jobs")
	}
}

func TestE11DoublingWithinFactorTwo(t *testing.T) {
	tbl, err := E11Ablations(8, 80, 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		ratio := parseF(t, row[3])
		if ratio > 1.0+1e-9 || ratio < 0.45 {
			t.Errorf("%s: doubling/full ratio %v outside (0.45, 1]", row[0], ratio)
		}
		overhead := parseF(t, row[6])
		if overhead < 1 {
			t.Errorf("%s: monitoring overhead %v below 1", row[0], overhead)
		}
	}
}

func TestE12RatiosBelowAnalyticBound(t *testing.T) {
	tbl, err := E12DimensionSweep(4000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		ratio := parseF(t, row[3])
		bound := parseF(t, row[4])
		if ratio > bound+4 {
			t.Errorf("l=%s: measured ratio %v above analytic bound %v", row[0], ratio, bound)
		}
	}
}

func TestWorkloadUnknown(t *testing.T) {
	arena := grid.MustNew(8, 8)
	if _, err := workload("nope", arena, rand.New(rand.NewSource(1)), 1); err == nil {
		t.Error("unknown workload should fail")
	}
}

// TestSweepExperimentsDeterministicAcrossWorkerCounts pins the sweep
// rewrite's contract on every sweep-built experiment: the rendered table is
// byte-identical for workers=1 and workers=8.
func TestSweepExperimentsDeterministicAcrossWorkerCounts(t *testing.T) {
	builders := map[string]func(workers int) (*Table, error){
		"E5":  func(w int) (*Table, error) { return E5ApproxQuality(16, 200, 11, w) },
		"E7":  func(w int) (*Table, error) { return E7Online(8, 80, 13, w, 0) },
		"E11": func(w int) (*Table, error) { return E11Ablations(8, 80, 3, w, 0) },
		"E13": func(w int) (*Table, error) { return E13Robustness([]float64{0, 0.5, 1}, 5, w, 0) },
		"E14": func(w int) (*Table, error) { return E14FailureModels([]float64{0, 0.25, 0.5}, 5, w, 0) },
		"E15": func(w int) (*Table, error) { return E15GossipFidelity([]int{-1, 0, 1, 2, 3}, 5, w, 0) },
	}
	for id, build := range builders {
		t.Run(id, func(t *testing.T) {
			serial, err := build(1)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 4, 8} {
				wide, err := build(w)
				if err != nil {
					t.Fatal(err)
				}
				if serial.Markdown() != wide.Markdown() {
					t.Errorf("%s drifted between workers=1 and workers=%d:\n--- w=1\n%s\n--- w=%d\n%s",
						id, w, serial.Markdown(), w, wide.Markdown())
				}
			}
		})
	}
}

// TestSimExperimentsDeterministicAcrossShardCounts is the legacy-vs-sealed
// differential test of the simulator-backed quick tables, built at
// SimShards 0 (legacy), 1 and 8. Every value >= 1 selects the one
// sealed-round schedule, so the tables at 1 and 8 must be byte-identical.
// Section 3.2's model admits any fair delivery order, so legacy and sealed
// rounds must agree on every cell except in the columns listed below, each
// with why its value follows the delivery order. An exemption marked
// failing holds only on rows with failures (a first cell other than "0"):
// with nothing failing, every job is served and nothing is rescued under
// any order.
func TestSimExperimentsDeterministicAcrossShardCounts(t *testing.T) {
	type varies struct {
		why     string
		failing bool
	}
	const recruit = "which vehicle a search recruits depends on which reply arrives first, and so do when it runs dry and the searches after it"
	scheduleColumns := map[string]map[string]varies{
		"E7": {
			"measured Won": {why: "the least capacity that serves every job follows the recruits: " + recruit},
			"Won/omega_c":  {why: "measured Won over an instance constant"},
		},
		"E8": {
			"replacements":     {why: recruit},
			"searches":         {why: "one search per replacement"},
			"messages":         {why: "each replacement floods a search and forwards its answer along a recruit-dependent path"},
			"msgs/replacement": {why: "messages over replacements"},
		},
		"E11": {
			"msgs monitoring off": {why: "search and relocation traffic follows the recruits: " + recruit},
			"msgs monitoring on":  {why: "the same traffic plus heartbeats"},
			"overhead x":          {why: "the ratio of the two message counts"},
		},
		"E13": {
			"served (monitoring off)": {why: "a silent failure leaves its pair down for good, and which vehicles fail and when follows the recruits", failing: true},
			"rescues (on)":            {why: "one rescue per silent failure that occurs, which follows the recruits", failing: true},
		},
		"E14": {
			"served":           {why: "a dead cell's jobs are lost until a rescue, and whether it was serving its pair when it died follows the recruits", failing: true},
			"silent rescues":   {why: "a death needs a rescue only if the dead cell was serving its pair", failing: true},
			"evidence rescues": {why: "a lying casualty is unmasked only after it loses a job", failing: true},
			"mean latency":     {why: "the arrivals between a death and its rescue follow the same recruits", failing: true},
			"replacements":     {why: "rescues plus exhaustion replacements, whose timing follows the recruits: " + recruit},
			"messages":         {why: "search, relocation and evidence traffic follows the recruits"},
		},
		"E15": {
			"served":          {why: "every row has dead cells, whose lost jobs follow the recruits"},
			"searches":        {why: "one search per replacement: " + recruit},
			"search failures": {why: "a gossip rumor's reach and the idle vehicles it can find follow the delivery order"},
			"replacements":    {why: recruit},
			"messages":        {why: "search, relocation and heartbeat-rescue traffic follows the recruits"},
		},
	}
	ran, differing := 0, 0
	for id, cols := range scheduleColumns {
		t.Run(id, func(t *testing.T) {
			ran++
			build := func(shards int) *Table {
				tables, err := Some(id, true, 1, shards)
				if err != nil {
					t.Fatal(err)
				}
				if len(tables) != 1 {
					t.Fatalf("shards=%d: %d tables, want 1", shards, len(tables))
				}
				return tables[0]
			}
			legacy, sealed := build(0), build(1)
			if got, want := build(8).Markdown(), sealed.Markdown(); got != want {
				t.Errorf("drifted between shards=1 and shards=8:\n--- s=1\n%s\n--- s=8\n%s", want, got)
			}
			if legacy.Title != sealed.Title || legacy.Notes != sealed.Notes ||
				!slices.Equal(legacy.Columns, sealed.Columns) || len(legacy.Rows) != len(sealed.Rows) {
				t.Fatalf("legacy and sealed tables differ in shape:\n--- legacy\n%s\n--- sealed\n%s",
					legacy.Markdown(), sealed.Markdown())
			}
			for name, v := range cols {
				if !slices.Contains(legacy.Columns, name) {
					t.Errorf("exempt column %q (%s) is not a column of %s", name, v.why, id)
				}
			}
			for r, row := range legacy.Rows {
				for c, name := range legacy.Columns {
					got := sealed.Rows[r][c]
					if got == row[c] {
						continue
					}
					differing++
					if v, ok := cols[name]; !ok || (v.failing && row[0] == "0") {
						t.Errorf("row %d (%s), column %q: legacy %q, sealed %q", r, row[0], name, row[c], got)
					}
				}
			}
		})
	}
	// The two schedules differ on the quick tables. If no cell does,
	// SimShards >= 1 no longer reaches sealed rounds, and the comparison
	// above compares one schedule with itself.
	if ran == len(scheduleColumns) && differing == 0 {
		t.Error("legacy and sealed tables agree on every cell: SimShards >= 1 does not select sealed rounds")
	}
}

// TestE14ByzantineNeedsEvidence pins the E14 story at the table level: with
// half the cells dying, the crash-silent row is rescued by beacon timeouts
// while the crash-then-lie row is rescued exclusively through the evidence
// channel.
func TestE14ByzantineNeedsEvidence(t *testing.T) {
	tbl, err := E14FailureModels([]float64{0.5}, 2008, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(tbl.Rows))
	}
	// Columns: fraction, model, served, silent, evidence, replacements, ...
	silentRow, lieRow := tbl.Rows[0], tbl.Rows[1]
	if silentRow[3] == "0" || silentRow[4] != "0" {
		t.Errorf("crash-silent row %v: want silent rescues > 0, evidence = 0", silentRow)
	}
	if lieRow[3] != "0" || lieRow[4] == "0" {
		t.Errorf("crash-then-lie row %v: want silent rescues = 0, evidence > 0", lieRow)
	}
}

// TestE15FullFloodMatchesDiffuse pins the degradation guarantee at the
// table level: the fanout-0 gossip row equals the diffuse baseline row in
// every measured column, under the legacy scheduler and under sealed
// rounds.
func TestE15FullFloodMatchesDiffuse(t *testing.T) {
	for _, shards := range []int{0, 1} {
		tbl, err := E15GossipFidelity([]int{-1, 0}, 2008, 1, shards)
		if err != nil {
			t.Fatal(err)
		}
		if len(tbl.Rows) != 2 {
			t.Fatalf("shards=%d: got %d rows, want 2", shards, len(tbl.Rows))
		}
		for c := 1; c < len(tbl.Rows[0]); c++ {
			if tbl.Rows[0][c] != tbl.Rows[1][c] {
				t.Errorf("shards=%d, column %d: diffuse %q vs full flood %q",
					shards, c, tbl.Rows[0][c], tbl.Rows[1][c])
			}
		}
	}
}
