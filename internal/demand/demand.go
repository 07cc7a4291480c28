// Package demand models CMVRP workloads: a demand function d(x) over lattice
// points plus an arrival order for the online case. It also provides the
// synthetic workload generators used throughout the experiments — including
// the three worked examples of thesis Section 2.1 (square, line, point).
package demand

import (
	"fmt"
	"iter"
	"maps"
	"math"
	"slices"

	"repro/internal/grid"
)

// Map is a demand function d: Z^l -> Z (jobs per position), sparse. Add
// keeps the total and the support's bounding box up to date, so reading
// them never walks the map. The maximum count is not kept: it would cost
// every Add a second map access, to read the count it just raised.
type Map struct {
	dim   int
	d     map[grid.Point]int64
	total int64
	// lo and hi are the corners of the support's bounding box; they mean
	// nothing while the map is empty.
	lo, hi grid.Point
}

// NewMap creates an empty demand map over Z^dim.
func NewMap(dim int) *Map {
	return &Map{dim: dim, d: make(map[grid.Point]int64)}
}

// Dim returns the lattice dimension.
func (m *Map) Dim() int { return m.dim }

// Add adds n jobs at p. Negative n is rejected, and so is a map dimension
// outside [1, grid.MaxDim], a point with a nonzero coordinate at an axis
// >= the map's dimension, or an addition that would take the total past
// math.MaxInt64 (wrapping grid.ErrOverflow). No count exceeds the total, so
// no count can wrap either.
func (m *Map) Add(p grid.Point, n int64) error {
	if m.dim < 1 || m.dim > grid.MaxDim {
		return fmt.Errorf("demand: dimension %d out of range [1,%d]", m.dim, grid.MaxDim)
	}
	for a := m.dim; a < grid.MaxDim; a++ {
		if p[a] != 0 {
			return fmt.Errorf("demand: point %v off the %d-D lattice", p, m.dim)
		}
	}
	if n < 0 {
		return fmt.Errorf("demand: negative job count %d at %v", n, p)
	}
	if n == 0 {
		return nil
	}
	if n > math.MaxInt64-m.total {
		return fmt.Errorf("demand: %d more jobs at %v take the total %d past %d: %w",
			n, p, m.total, int64(math.MaxInt64), grid.ErrOverflow)
	}
	if len(m.d) == 0 {
		m.lo, m.hi = p, p
	}
	for i := 0; i < m.dim; i++ {
		m.lo[i] = min(m.lo[i], p[i])
		m.hi[i] = max(m.hi[i], p[i])
	}
	m.d[p] += n
	m.total += n
	return nil
}

// At returns d(p).
func (m *Map) At(p grid.Point) int64 { return m.d[p] }

// Total returns the total number of jobs.
func (m *Map) Total() int64 { return m.total }

// Max returns the maximum demand D = max_x d(x) (thesis Section 2.3).
func (m *Map) Max() int64 {
	var best int64
	for _, v := range m.d {
		if v > best {
			best = v
		}
	}
	return best
}

// All returns the support and its counts in map order.
func (m *Map) All() iter.Seq2[grid.Point, int64] { return maps.All(m.d) }

// Support returns the demand positions in deterministic (sorted) order.
func (m *Map) Support() []grid.Point {
	pts := make([]grid.Point, 0, len(m.d))
	for p := range m.d {
		pts = append(pts, p)
	}
	slices.SortFunc(pts, grid.Point.Compare)
	return pts
}

// SupportSize returns the number of positions with nonzero demand.
func (m *Map) SupportSize() int { return len(m.d) }

// BoundingBox returns the smallest box containing the support, or ok=false
// for an empty map.
func (m *Map) BoundingBox() (grid.Box, bool) {
	if len(m.d) == 0 {
		return grid.Box{}, false
	}
	return grid.Box{Lo: m.lo, Hi: m.hi, Dim: m.dim}, true
}

// SumIn returns the total demand inside box b.
func (m *Map) SumIn(b grid.Box) int64 {
	var s int64
	for p, v := range m.d {
		if b.Contains(p) {
			s += v
		}
	}
	return s
}
