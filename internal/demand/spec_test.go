package demand

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

func TestParseSpec(t *testing.T) {
	arena, m, err := ParseSpec([]byte(`{
		"arena": [8, 8],
		"demands": [{"at": [2, 3], "jobs": 5}, {"at": [2, 3], "jobs": 2}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if arena.Dim() != 2 || arena.Size(0) != 8 {
		t.Fatalf("arena %v", arena)
	}
	if m.At(grid.P(2, 3)) != 7 {
		t.Errorf("demand %d, want 7 (entries accumulate)", m.At(grid.P(2, 3)))
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":       `{nope`,
		"empty arena":    `{"arena": [], "demands": []}`,
		"coord mismatch": `{"arena": [8, 8], "demands": [{"at": [1], "jobs": 1}]}`,
		"outside arena":  `{"arena": [8, 8], "demands": [{"at": [9, 9], "jobs": 1}]}`,
		// grid.P narrows coordinates to int32: without a range check on the
		// ints, both rows would parse as 5 jobs at (1,0).
		"coord 2^32+1":  `{"arena": [8, 8], "demands": [{"at": [4294967297, 0], "jobs": 5}]}`,
		"coord -2^32+1": `{"arena": [8, 8], "demands": [{"at": [-4294967295, 0], "jobs": 5}]}`,
		"negative jobs": `{"arena": [8, 8], "demands": [{"at": [1, 1], "jobs": -1}]}`,
		"too many axes": `{"arena": [2,2,2,2,2], "demands": []}`,
	}
	for name, spec := range cases {
		if _, _, err := ParseSpec([]byte(spec)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	arena := grid.MustNew(10, 10)
	rng := rand.New(rand.NewSource(7))
	b, err := grid.NewBox(2, grid.P(0, 0), grid.P(9, 9))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Uniform(rng, b, 50)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeSpec(arena, m)
	if err != nil {
		t.Fatal(err)
	}
	arena2, m2, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if arena2.Len() != arena.Len() {
		t.Error("arena size changed")
	}
	if m2.Total() != m.Total() {
		t.Fatalf("total %d != %d", m2.Total(), m.Total())
	}
	for _, p := range m.Support() {
		if m2.At(p) != m.At(p) {
			t.Fatalf("at %v: %d != %d", p, m2.At(p), m.At(p))
		}
	}
}

func TestEncodeSpecErrors(t *testing.T) {
	arena := grid.MustNew(4, 4)
	if _, err := EncodeSpec(arena, NewMap(1)); err == nil {
		t.Error("dim mismatch should fail")
	}
	m := NewMap(2)
	if err := m.Add(grid.P(99, 99), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := EncodeSpec(arena, m); err == nil {
		t.Error("out-of-arena position should fail")
	}
}

// EncodeSpec serializes an arena and demand map back to the JSON format
// (entries in deterministic support order).
func EncodeSpec(arena *grid.Grid, m *Map) ([]byte, error) {
	if m.Dim() != arena.Dim() {
		return nil, fmt.Errorf("demand: dimension mismatch %d vs %d", m.Dim(), arena.Dim())
	}
	spec := Spec{}
	for i := 0; i < arena.Dim(); i++ {
		spec.Arena = append(spec.Arena, arena.Size(i))
	}
	for _, p := range m.Support() {
		if !arena.Contains(p) {
			return nil, fmt.Errorf("demand: position %v outside arena", p)
		}
		at := make([]int, arena.Dim())
		for i := range at {
			at[i] = p.Coord(i)
		}
		spec.Demands = append(spec.Demands, SpecDemand{At: at, Jobs: m.At(p)})
	}
	return json.MarshalIndent(spec, "", "  ")
}
