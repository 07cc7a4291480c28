package demand

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// refUniform, refClusters and refZipf are the generators as they stood
// before jobSink: one validated Add per unit job, kept as the reference of
// TestGeneratorsMatchPerJobReference.
func refUniform(rng *rand.Rand, b grid.Box, jobs int64) (*Map, error) {
	m := NewMap(b.Dim)
	for j := int64(0); j < jobs; j++ {
		var p grid.Point
		for i := 0; i < b.Dim; i++ {
			p[i] = b.Lo[i] + int32(rng.Int63n(b.Side(i)))
		}
		if err := m.Add(p, 1); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func refClusters(rng *rand.Rand, b grid.Box, k int, jobsPerCluster int64, spread int) (*Map, error) {
	m := NewMap(b.Dim)
	for c := 0; c < k; c++ {
		var center grid.Point
		for i := 0; i < b.Dim; i++ {
			center[i] = b.Lo[i] + int32(rng.Int63n(b.Side(i)))
		}
		for j := int64(0); j < jobsPerCluster; j++ {
			p := center
			for i := 0; i < b.Dim; i++ {
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
			if err := m.Add(p, 1); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

func refZipf(rng *rand.Rand, b grid.Box, jobs int64, s float64) (*Map, error) {
	z := rand.NewZipf(rng, s, 1, uint64(b.Volume()-1))
	pts := b.Points()
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	m := NewMap(b.Dim)
	for j := int64(0); j < jobs; j++ {
		if err := m.Add(pts[z.Uint64()], 1); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// sameMap reports how got differs from want, or "" when they hold the same
// counts: At over box, Total, BoundingBox and SupportSize.
func sameMap(got, want *Map, box grid.Box) string {
	gb, gok := got.BoundingBox()
	wb, wok := want.BoundingBox()
	switch {
	case got.Dim() != want.Dim():
		return fmt.Sprintf("dimension %d, want %d", got.Dim(), want.Dim())
	case got.Total() != want.Total():
		return fmt.Sprintf("total %d, want %d", got.Total(), want.Total())
	case got.SupportSize() != want.SupportSize():
		return fmt.Sprintf("support size %d, want %d", got.SupportSize(), want.SupportSize())
	case gb != wb || gok != wok:
		return fmt.Sprintf("bounding box %v (%v), want %v (%v)", gb, gok, wb, wok)
	}
	for _, p := range box.Points() {
		if got.At(p) != want.At(p) {
			return fmt.Sprintf("%d jobs at %v, want %d", got.At(p), p, want.At(p))
		}
	}
	return ""
}

// TestGeneratorsMatchPerJobReference pins Uniform, Clusters and Zipf to the
// per-job reference generators at the same seed on 1-4-D boxes on both
// sides of the counting gate: from 0 jobs to twice the box's cells, so
// that some boxes hold more cells than the jobs drawn (one Add per job)
// and others fewer (counted per cell). Each map must hold the same counts,
// and the generator must leave the caller's rng where the reference does.
func TestGeneratorsMatchPerJobReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	counted, perJob := 0, 0
	for trial := range 600 {
		dim := 1 + rng.Intn(grid.MaxDim)
		box := grid.Box{Dim: dim}
		for i := range dim {
			box.Lo[i] = int32(rng.Intn(21) - 10)
			box.Hi[i] = box.Lo[i] + int32(rng.Intn(7-dim))
		}
		cells := box.Volume()
		jobs := rng.Int63n(2*cells + 1)
		k := 1 + rng.Intn(3)
		draws := int64(k) * (jobs / int64(k))
		if cells <= draws {
			counted++
		} else {
			perJob++
		}
		seed := rng.Int63()
		for _, gen := range []struct {
			name      string
			got, want func(*rand.Rand) (*Map, error)
		}{
			{"Uniform",
				func(r *rand.Rand) (*Map, error) { return Uniform(r, box, jobs) },
				func(r *rand.Rand) (*Map, error) { return refUniform(r, box, jobs) }},
			{"Clusters",
				func(r *rand.Rand) (*Map, error) { return Clusters(r, box, k, jobs/int64(k), trial%4) },
				func(r *rand.Rand) (*Map, error) { return refClusters(r, box, k, jobs/int64(k), trial%4) }},
			{"Zipf",
				func(r *rand.Rand) (*Map, error) { return Zipf(r, box, jobs, 1.2) },
				func(r *rand.Rand) (*Map, error) { return refZipf(r, box, jobs, 1.2) }},
		} {
			gr, wr := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got, err := gen.got(gr)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, gen.name, err)
			}
			want, err := gen.want(wr)
			if err != nil {
				t.Fatalf("trial %d: %s reference: %v", trial, gen.name, err)
			}
			if diff := sameMap(got, want, box); diff != "" {
				t.Fatalf("trial %d: %s on %v..%v with %d jobs: %s", trial, gen.name, box.Lo, box.Hi, jobs, diff)
			}
			if g, w := gr.Int63(), wr.Int63(); g != w {
				t.Fatalf("trial %d: %s left the rng at %d, the reference at %d", trial, gen.name, g, w)
			}
		}
	}
	t.Logf("%d boxes counted per cell, %d filled per job", counted, perJob)
	if counted < 100 || perJob < 100 {
		t.Errorf("the boxes must fall on both sides of the gate: %d counted, %d per job", counted, perJob)
	}
}

// TestJobSinkGate pins when a generator counts per cell: a box of no more
// cells than the jobs drawn, whose cell count does not overflow and whose
// points Add accepts.
func TestJobSinkGate(t *testing.T) {
	full := grid.Box{Lo: grid.P(math.MinInt32, 0), Hi: grid.P(math.MaxInt32, math.MaxInt32), Dim: 2}
	for _, tc := range []struct {
		name  string
		box   grid.Box
		draws int64
		count bool
	}{
		{"16 cells, 16 jobs", grid.Box{Hi: grid.P(3, 3), Dim: 2}, 16, true},
		{"16 cells, 15 jobs", grid.Box{Hi: grid.P(3, 3), Dim: 2}, 15, false},
		{"1 cell, 0 jobs", grid.Box{Dim: 1}, 0, false},
		{"2^63 cells", full, math.MaxInt64, false},
		{"off the lattice", grid.Box{Lo: grid.P(0, 5), Hi: grid.P(3, 5), Dim: 1}, 100, false},
		{"dimension 0", grid.Box{}, 100, false},
	} {
		if s := newJobSink(tc.box, tc.draws); (s.counts != nil) != tc.count {
			t.Errorf("%s: counting %v, want %v", tc.name, s.counts != nil, tc.count)
		}
	}
}
