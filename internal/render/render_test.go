package render

import (
	"strings"
	"testing"

	"repro/internal/demand"
	"repro/internal/grid"
	"repro/internal/offline"
)

func TestDemandHeatmap(t *testing.T) {
	arena := grid.MustNew(8, 4)
	m := demand.NewMap(2)
	if err := m.Add(grid.P(0, 0), 10); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(grid.P(7, 3), 1); err != nil {
		t.Fatal(err)
	}
	out, err := DemandHeatmap(m, arena)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // 4 rows + legend
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if lines[0][0] != '@' {
		t.Errorf("hottest cell should render '@', got %q", lines[0][0])
	}
	if lines[3][7] == ' ' {
		t.Error("nonzero demand must be visible")
	}
	if lines[1][3] != ' ' {
		t.Error("zero demand should be blank")
	}
	if !strings.Contains(lines[4], "legend") {
		t.Error("missing legend")
	}
}

func TestDemandHeatmapDimCheck(t *testing.T) {
	if _, err := DemandHeatmap(demand.NewMap(1), grid.MustNew(4)); err == nil {
		t.Error("1-D should fail")
	}
}

func TestScheduleMap(t *testing.T) {
	arena := grid.MustNew(4, 4)
	sched := &offline.Schedule{Plans: []offline.VehiclePlan{
		{Home: grid.P(0, 0), ServeHome: 3},
		{Home: grid.P(1, 0), Moved: true, Dest: grid.P(0, 0), ServeDest: 2},
		{Home: grid.P(2, 0), ServeHome: 1, Moved: true, Dest: grid.P(0, 0), ServeDest: 1},
	}}
	out, err := ScheduleMap(sched, arena)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out, "\n")
	if lines[0][0] != 'o' || lines[0][1] != '>' || lines[0][2] != 'X' {
		t.Errorf("row 0 = %q, want o>X.", lines[0])
	}
	if lines[1][0] != '.' {
		t.Error("inactive cells should be '.'")
	}
}

func TestScheduleMapDimCheck(t *testing.T) {
	if _, err := ScheduleMap(&offline.Schedule{}, grid.MustNew(4)); err == nil {
		t.Error("1-D should fail")
	}
}

func TestEndToEndRealSchedule(t *testing.T) {
	arena := grid.MustNew(16, 16)
	m, err := demand.PointMass(2, grid.P(8, 8), 200)
	if err != nil {
		t.Fatal(err)
	}
	d, err := offline.NewDense(m, arena)
	if err != nil {
		t.Fatal(err)
	}
	char, err := d.OmegaC()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := d.BuildSchedule(char)
	if err != nil {
		t.Fatal(err)
	}
	hm, err := DemandHeatmap(m, arena)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := ScheduleMap(sched, arena)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hm, "@") {
		t.Error("heatmap missing hotspot")
	}
	if !strings.ContainsAny(sm, "o>X") {
		t.Error("schedule map shows no activity")
	}
}
