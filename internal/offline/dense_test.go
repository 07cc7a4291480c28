package offline

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/demand"
	"repro/internal/grid"
)

// TestDenseSharedViewMatchesStandalone pins that one shared Dense view
// driving the whole pipeline (characterize, estimate, construct) returns
// exactly what the standalone per-call functions return — the offline
// warm ≡ cold contract.
func TestDenseSharedViewMatchesStandalone(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	arena := grid.MustNew(16, 16)
	inner, err := grid.NewBox(2, grid.P(4, 4), grid.P(11, 11))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		m, err := demand.Uniform(rng, inner, 300)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDense(m, arena)
		if err != nil {
			t.Fatal(err)
		}

		charShared, err := d.OmegaC()
		if err != nil {
			t.Fatal(err)
		}
		charCold, err := OmegaC(m, arena)
		if err != nil {
			t.Fatal(err)
		}
		if charShared != charCold {
			t.Fatalf("trial %d: shared OmegaC %+v != standalone %+v", trial, charShared, charCold)
		}

		resShared, err := d.Algorithm1()
		if err != nil {
			t.Fatal(err)
		}
		resCold, err := Algorithm1(m, arena)
		if err != nil {
			t.Fatal(err)
		}
		if resShared != resCold {
			t.Fatalf("trial %d: shared Algorithm1 %+v != standalone %+v", trial, resShared, resCold)
		}

		schedShared, err := d.BuildSchedule(charShared)
		if err != nil {
			t.Fatal(err)
		}
		schedCold, err := BuildSchedule(m, arena)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(schedShared, schedCold) {
			t.Fatalf("trial %d: shared schedule differs from BuildSchedule", trial)
		}
		if _, err := VerifySchedule(m, schedShared, schedShared.W); err != nil {
			t.Fatalf("trial %d: shared schedule invalid: %v", trial, err)
		}
	}
}

func TestDenseAt(t *testing.T) {
	arena := grid.MustNew(4, 4)
	m := demand.NewMap(2)
	if err := m.Add(grid.P(2, 3), 7); err != nil {
		t.Fatal(err)
	}
	d, err := NewDense(m, arena)
	if err != nil {
		t.Fatal(err)
	}
	if d.arena != arena {
		t.Error("Dense should keep the construction arena")
	}
	if got := d.At(grid.P(2, 3)); got != 7 {
		t.Errorf("At = %d, want 7", got)
	}
	if got := d.At(grid.P(0, 0)); got != 0 {
		t.Errorf("At empty cell = %d, want 0", got)
	}
}

func TestDenseOutsideArena(t *testing.T) {
	m := demand.NewMap(2)
	if err := m.Add(grid.P(50, 50), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDense(m, grid.MustNew(8, 8)); err == nil {
		t.Error("demand outside arena should fail")
	}
}

// TestNewDenseNamesLeastOutsidePoint pins the error text of demand at
// several points outside the arena: it names the least of them, whatever
// order map iteration takes, and the arena's every size.
func TestNewDenseNamesLeastOutsidePoint(t *testing.T) {
	for _, tc := range []struct {
		arena *grid.Grid
		pts   []grid.Point
		want  string
	}{
		{grid.MustNew(4, 4), []grid.Point{grid.P(9, 1), grid.P(1, 7), grid.P(5, 5), grid.P(1, 2)},
			"offline: position (1,7) outside the 4x4 arena"},
		{grid.MustNew(4, 6, 2), []grid.Point{grid.P(3, 5, 2), grid.P(0, 6, 1), grid.P(4, 0, 0), grid.P(1, 1, 1)},
			"offline: position (0,6,1) outside the 4x6x2 arena"},
		{grid.MustNew(5), []grid.Point{grid.P(7), grid.P(-1), grid.P(2)},
			"offline: position (-1,0) outside the 5 arena"},
	} {
		m := demand.NewMap(tc.arena.Dim())
		for _, p := range tc.pts {
			if err := m.Add(p, 3); err != nil {
				t.Fatal(err)
			}
		}
		for range 200 {
			if _, err := NewDense(m, tc.arena); err == nil || err.Error() != tc.want {
				t.Fatalf("NewDense = %v, want %q", err, tc.want)
			}
		}
	}
}
