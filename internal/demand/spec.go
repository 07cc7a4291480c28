package demand

import (
	"encoding/json"
	"fmt"

	"repro/internal/grid"
)

// Spec is the JSON wire format for a CMVRP instance: an arena plus point
// demands, read by cmd/cmvrp through ParseSpec.
type Spec struct {
	// Arena holds per-axis sizes (1 to 4 axes).
	Arena []int `json:"arena"`
	// Demands lists the nonzero demand positions.
	Demands []SpecDemand `json:"demands"`
}

// SpecDemand is one demand entry.
type SpecDemand struct {
	At   []int `json:"at"`
	Jobs int64 `json:"jobs"`
}

// ParseSpec decodes a JSON instance and materializes the arena and demand
// map, validating coordinates against the arena.
func ParseSpec(data []byte) (*grid.Grid, *Map, error) {
	var spec Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, nil, fmt.Errorf("demand: parse spec: %w", err)
	}
	arena, err := grid.New(spec.Arena...)
	if err != nil {
		return nil, nil, fmt.Errorf("demand: spec arena: %w", err)
	}
	m := NewMap(arena.Dim())
	for i, d := range spec.Demands {
		if len(d.At) != arena.Dim() {
			return nil, nil, fmt.Errorf("demand: spec entry %d has %d coordinates for a %d-D arena",
				i, len(d.At), arena.Dim())
		}
		// Check the ints before grid.P narrows them to int32, which would
		// wrap a coordinate such as 2^32+1 into the arena.
		for axis, c := range d.At {
			if c < 0 || c >= arena.Size(axis) {
				return nil, nil, fmt.Errorf("demand: spec entry %d at %v outside arena", i, d.At)
			}
		}
		p := grid.P(d.At...)
		if err := m.Add(p, d.Jobs); err != nil {
			return nil, nil, fmt.Errorf("demand: spec entry %d: %w", i, err)
		}
	}
	return arena, m, nil
}
