package demand

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/grid"
)

// Square returns the workload of thesis Example 1 (Fig 2.1a): demand d at
// every point of an a x a square whose lower corner is at `corner`.
func Square(corner grid.Point, a int, d int64) (*Map, error) {
	if a < 1 {
		return nil, fmt.Errorf("demand: square side %d must be >= 1", a)
	}
	m := NewMap(2)
	box, err := grid.Cube(2, corner, a)
	if err != nil {
		return nil, err
	}
	for _, p := range box.Points() {
		if err := m.Add(p, d); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Line returns the workload of thesis Example 2 (Fig 2.1b): demand d at
// every point of a horizontal line of length n starting at `start`. This
// models mobile vehicles monitoring traffic flow on a highway.
func Line(start grid.Point, n int, d int64) (*Map, error) {
	if n < 1 {
		return nil, fmt.Errorf("demand: line length %d must be >= 1", n)
	}
	if n-1 > math.MaxInt32-int(start[0]) {
		return nil, fmt.Errorf("demand: line of length %d from %v has its far end past %d on axis 0", n, start, math.MaxInt32)
	}
	m := NewMap(2)
	for i := 0; i < n; i++ {
		p := start
		p[0] += int32(i)
		if err := m.Add(p, d); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// PointMass returns the workload of thesis Example 3 (Fig 2.1c): demand d at
// the single point p. This models vehicles converging on an earthquake site.
func PointMass(dim int, p grid.Point, d int64) (*Map, error) {
	m := NewMap(dim)
	if err := m.Add(p, d); err != nil {
		return nil, err
	}
	return m, nil
}

// Uniform scatters `jobs` unit jobs uniformly at random over the box.
func Uniform(rng *rand.Rand, b grid.Box, jobs int64) (*Map, error) {
	s := newJobSink(b, jobs)
	for j := int64(0); j < jobs; j++ {
		var p grid.Point
		for i := 0; i < b.Dim; i++ {
			p[i] = b.Lo[i] + int32(rng.Int63n(b.Side(i)))
		}
		if err := s.add(p); err != nil {
			return nil, err
		}
	}
	return s.done()
}

// Clusters scatters jobs into k Gaussian-ish clusters inside the box: each
// cluster has a uniformly random center and geometric radius spread. This
// models the "Smart Dust" scenario of localized sensing events.
func Clusters(rng *rand.Rand, b grid.Box, k int, jobsPerCluster int64, spread int) (*Map, error) {
	if k < 1 {
		return nil, fmt.Errorf("demand: cluster count %d must be >= 1", k)
	}
	if spread < 0 {
		return nil, fmt.Errorf("demand: spread %d must be >= 0", spread)
	}
	draws := int64(math.MaxInt64) // k*jobsPerCluster, saturated
	if jobsPerCluster <= math.MaxInt64/int64(k) {
		draws = int64(k) * jobsPerCluster
	}
	s := newJobSink(b, draws)
	for c := 0; c < k; c++ {
		var center grid.Point
		for i := 0; i < b.Dim; i++ {
			center[i] = b.Lo[i] + int32(rng.Int63n(b.Side(i)))
		}
		for j := int64(0); j < jobsPerCluster; j++ {
			p := center
			for i := 0; i < b.Dim; i++ {
				// Two-sided geometric jitter, clamped to the box.
				off := int32(0)
				for rng.Intn(3) != 0 && off < int32(spread) {
					off++
				}
				if rng.Intn(2) == 0 {
					off = -off
				}
				p[i] += off
				if p[i] < b.Lo[i] {
					p[i] = b.Lo[i]
				}
				if p[i] > b.Hi[i] {
					p[i] = b.Hi[i]
				}
			}
			if err := s.add(p); err != nil {
				return nil, err
			}
		}
	}
	return s.done()
}

// maxZipfCells bounds the box Zipf lists and shuffles.
const maxZipfCells = 1 << 20

// Zipf assigns total jobs across the box's points with a Zipfian rank-size
// law (skew s > 1): heavy hot spots plus a long tail, a standard stress
// shape for capacitated assignment. The box holds at most 2^20 points.
func Zipf(rng *rand.Rand, b grid.Box, jobs int64, s float64) (*Map, error) {
	// NaN slips past s <= 1, and rand.Zipf loops forever on NaN or +Inf.
	if !(s > 1) || math.IsInf(s, 1) {
		return nil, fmt.Errorf("demand: zipf skew %v must be finite and > 1", s)
	}
	vol, err := b.VolumeChecked()
	if err != nil || vol < 1 || vol > maxZipfCells {
		return nil, fmt.Errorf("demand: zipf box %v..%v must hold 1 to %d points", b.Lo, b.Hi, maxZipfCells)
	}
	z := rand.NewZipf(rng, s, 1, uint64(vol-1))
	pts := b.Points()
	// Shuffle so rank 0 lands at a random position, not always the corner.
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	sink := newJobSink(b, jobs)
	for j := int64(0); j < jobs; j++ {
		if err := sink.add(pts[z.Uint64()]); err != nil {
			return nil, err
		}
	}
	return sink.done()
}

// jobSink collects the unit jobs a generator draws in a box into a Map.
// When the box has no more cells than the draws, it counts them per cell
// and then makes one Add per occupied cell, in row-major order, into a map
// sized once, instead of one Add per job. A larger box, one whose cell
// count overflows, or one whose points Add refuses takes one Add per job
// as before: counting never costs more than 8 bytes per job drawn, and an
// invalid box fails at its first job. Either way the map holds the same
// counts.
type jobSink struct {
	m      *Map
	ix     grid.BoxIndex
	counts []int64 // per cell of the box in row-major order; nil: Add per job
}

// newJobSink returns the sink for draws unit jobs in b.
func newJobSink(b grid.Box, draws int64) jobSink {
	// Every point drawn lies in b and has b.Lo's coordinates past b.Dim, so
	// Add accepts them all when it accepts b.Lo; a count of 0 checks that
	// and touches no map. It also refuses a dimension past grid.MaxDim
	// before VolumeChecked would read past the box's axes.
	m := &Map{dim: b.Dim}
	if m.Add(b.Lo, 0) == nil {
		if vol, err := b.VolumeChecked(); err == nil && vol <= draws {
			return jobSink{m: m, ix: grid.NewBoxIndex(b), counts: make([]int64, vol)}
		}
	}
	m.d = make(map[grid.Point]int64)
	return jobSink{m: m}
}

// add records one job at p, a point of the box.
func (s *jobSink) add(p grid.Point) error {
	if s.counts == nil {
		return s.m.Add(p, 1)
	}
	s.counts[s.ix.Offset(p)]++
	return nil
}

// done returns the map of the jobs added.
func (s *jobSink) done() (*Map, error) {
	if s.counts == nil {
		return s.m, nil
	}
	cells := 0
	for _, n := range s.counts {
		if n > 0 {
			cells++
		}
	}
	s.m.d = make(map[grid.Point]int64, cells)
	for o, n := range s.counts {
		if n > 0 {
			if err := s.m.Add(s.ix.PointAt(int64(o)), n); err != nil {
				return nil, err
			}
		}
	}
	return s.m, nil
}

// Alternating returns the adversarial two-point workload of thesis Figure
// 4.1: jobs arrive alternately at two points at mutual distance 2*r1, d jobs
// at each. Used by the broken-vehicle study where arrival order matters.
func Alternating(dim int, a, b grid.Point, d int64) (*Map, *Sequence, error) {
	m := NewMap(dim)
	if err := m.Add(a, d); err != nil {
		return nil, nil, err
	}
	if err := m.Add(b, d); err != nil {
		return nil, nil, err
	}
	arrivals := make([]grid.Point, 0, 2*d)
	for i := int64(0); i < d; i++ {
		arrivals = append(arrivals, a, b)
	}
	return m, &Sequence{arrivals: arrivals}, nil
}
