package offline

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/demand"
	"repro/internal/grid"
)

// arenaDense is the offline view as it stood while it densified the demand
// over the whole arena: the arena's value array, a summed-area table over
// the whole arena, Algorithm 1's pyramid halved in place in one buffer, and
// a schedule that visits every tile and reads each cell from the array. It
// is the reference of TestDenseMatchesArenaTable and
// FuzzDenseMatchesArenaTable.
type arenaDense struct {
	m     *demand.Map
	arena *grid.Grid
	vals  []int64
	ps    grid.PrefixSum
}

func newArenaDense(m *demand.Map, arena *grid.Grid) (*arenaDense, error) {
	a := &arenaDense{m: m, arena: arena, vals: make([]int64, arena.Len())}
	for _, p := range m.Support() {
		if !arena.Contains(p) {
			return nil, fmt.Errorf("demand: position %v outside arena", p)
		}
		a.vals[arena.Index(p)] = m.At(p)
	}
	var err error
	if a.ps, err = grid.NewPrefixSum(arena, arena.Bounds()); err != nil {
		return nil, err
	}
	for i, v := range a.vals {
		a.ps.Add(arena.PointAt(int64(i)), v)
	}
	a.ps.Accumulate()
	return a, nil
}

func (a *arenaDense) omegaC() (CubeChar, error) {
	if a.m.Total() == 0 {
		return CubeChar{}, nil
	}
	l := a.arena.Dim()
	maxSide := a.arena.MinSize()
	best := CubeChar{Omega: math.Inf(1)}
	for s := 1; s <= maxSide; s++ {
		if float64(s-1) >= best.Omega {
			break
		}
		sum := a.ps.MaxCubeSum(s)
		if sum <= 0 {
			continue
		}
		f := float64(sum) / float64(pow(3*s, l))
		var cand float64
		switch {
		case f > float64(s):
			continue
		case f > float64(s-1):
			cand = f
		default:
			cand = float64(s - 1)
		}
		if cand < best.Omega {
			best = CubeChar{Omega: cand, Side: s}
		}
	}
	if math.IsInf(best.Omega, 1) {
		return CubeChar{}, fmt.Errorf("offline: no feasible cube size within arena (max side %d)", maxSide)
	}
	return best, nil
}

func (a *arenaDense) algorithm1() (Alg1Result, error) {
	m, arena := a.m, a.arena
	l := arena.Dim()
	n := arena.Size(0)
	for i := 1; i < l; i++ {
		if arena.Size(i) != n {
			return Alg1Result{}, fmt.Errorf("offline: arena must be square, got %d and %d", n, arena.Size(i))
		}
	}
	if n&(n-1) != 0 {
		return Alg1Result{}, fmt.Errorf("offline: arena side %d must be a power of two", n)
	}
	maxD := float64(m.Max())
	avgD := float64(m.Total()) / float64(arena.Len())
	fallback := math.Min(maxD, 2*avgD+float64(l*n))
	if float64(n) <= avgD {
		return Alg1Result{W: fallback, Branch: BranchDenseGrid}, nil
	}
	if maxD <= 1 {
		return Alg1Result{W: maxD, Branch: BranchTinyDemand}, nil
	}
	buf := make([]int64, pow(n/2, l))
	cur := a.vals
	side := n
	for w := 2; ; w *= 2 {
		if w > n {
			return Alg1Result{W: fallback, Branch: BranchFullGrid}, nil
		}
		side /= 2
		cur = aggregate(buf[:pow(side, l)], cur, side, l)
		threshold := float64(w) * float64(pow(3*w, l))
		ok := true
		for _, v := range cur {
			if float64(v) > threshold {
				ok = false
				break
			}
		}
		if ok {
			return Alg1Result{W: float64(2*pow(3, l)+int64(l)) * float64(w), CubeSide: w, Branch: BranchCube}, nil
		}
	}
}

// aggregate sums the 2^l-blocks of the l-dimensional (2*half)^l dense array
// src into the half^l array dst and returns dst (lines 8-9 of Algorithm 1).
// dst may be src's own prefix: output cell o reads only cells at or after o
// in row-major order, which no earlier output has overwritten.
func aggregate(dst, src []int64, half, l int) []int64 {
	var inStride, outStride [grid.MaxDim]int64
	is, os := int64(1), int64(1)
	for i := l - 1; i >= 0; i-- {
		inStride[i], outStride[i] = is, os
		is *= int64(2 * half)
		os *= int64(half)
	}
	var idx [grid.MaxDim]int
	for o := range dst {
		rem := int64(o)
		for i := 0; i < l; i++ {
			idx[i] = int(rem / outStride[i])
			rem %= outStride[i]
		}
		var sum int64
		for mask := 0; mask < 1<<l; mask++ {
			in := int64(0)
			for i := 0; i < l; i++ {
				c := 2 * idx[i]
				if mask&(1<<i) != 0 {
					c++
				}
				in += int64(c) * inStride[i]
			}
			sum += src[in]
		}
		dst[o] = sum
	}
	return dst
}

func (a *arenaDense) buildSchedule(char CubeChar) (*Schedule, error) {
	arena := a.arena
	if a.m.Total() == 0 {
		return &Schedule{}, nil
	}
	if char.Omega <= 0 {
		return nil, fmt.Errorf("offline: omega %v must be positive for nonzero demand", char.Omega)
	}
	s := char.Side
	if s < 1 {
		s = max(int(math.Ceil(char.Omega)), 1)
	}
	budget := max(int64(math.Ceil(float64(pow(3, arena.Dim()))*char.Omega)), 1)
	sched := &Schedule{CubeSide: s, OmegaC: char.Omega}
	for c := range arena.Tiles(s) {
		cube, full := arena.Tile(s, c)
		cells := cube.Points()
		plans := make([]VehiclePlan, len(cells))
		anyDemand := false
		for k, p := range cells {
			dp := a.vals[arena.Index(p)]
			anyDemand = anyDemand || dp > 0
			plans[k] = VehiclePlan{Home: p, ServeHome: min(dp, budget)}
		}
		if !anyDemand {
			continue
		}
		helper := 0
		for k, x := range cells {
			for rest := a.vals[arena.Index(x)] - plans[k].ServeHome; rest > 0; helper++ {
				for helper < len(plans) && plans[helper].Moved {
					helper++
				}
				if helper == len(plans) {
					if !full {
						return nil, fmt.Errorf("offline: cube %v..%v ran out of helpers (leftover %d at %v): %w",
							cube.Lo, cube.Hi, rest, x, ErrBoundaryCube)
					}
					return nil, fmt.Errorf("offline: cube %v..%v ran out of helpers (omega too small: leftover %d at %v)",
						cube.Lo, cube.Hi, rest, x)
				}
				pl := &plans[helper]
				pl.Moved, pl.Dest, pl.ServeDest = true, x, min(rest, budget)
				rest -= pl.ServeDest
			}
		}
		for _, pl := range plans {
			if pl.ServeHome > 0 || pl.Moved {
				sched.Plans = append(sched.Plans, pl)
				sched.W = max(sched.W, pl.Energy())
			}
		}
	}
	return sched, nil
}

// errText returns err's text, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// compareWithArena runs OmegaC, Algorithm1 and BuildSchedule on a Dense of
// m over arena and on the arena-wide reference and fails on any difference:
// values, errors (text and ErrBoundaryCube alike) and schedules, plan order
// included. BuildSchedule runs at OmegaC's characterization and at alt,
// when alt.Omega > 0. It returns whether a schedule was built at alt.
func compareWithArena(t testing.TB, m *demand.Map, arena *grid.Grid, alt CubeChar) bool {
	t.Helper()
	d, err := NewDense(m, arena)
	if err != nil {
		t.Fatalf("arena %v: NewDense: %v", arena.Bounds().Hi, err)
	}
	ref, err := newArenaDense(m, arena)
	if err != nil {
		t.Fatalf("arena %v: reference: %v", arena.Bounds().Hi, err)
	}
	char, err := d.OmegaC()
	wantChar, wantErr := ref.omegaC()
	if char != wantChar || errText(err) != errText(wantErr) {
		t.Fatalf("arena %v: OmegaC %+v, %v; reference %+v, %v", arena.Bounds().Hi, char, err, wantChar, wantErr)
	}
	res, err := d.Algorithm1()
	wantRes, wantErr := ref.algorithm1()
	if res != wantRes || errText(err) != errText(wantErr) {
		t.Fatalf("arena %v: Algorithm1 %+v, %v; reference %+v, %v", arena.Bounds().Hi, res, err, wantRes, wantErr)
	}
	chars := []CubeChar{char}
	if alt.Omega > 0 {
		chars = append(chars, alt)
	}
	built := false
	for _, c := range chars {
		sched, err := d.BuildSchedule(c)
		want, wantErr := ref.buildSchedule(c)
		if errText(err) != errText(wantErr) || errors.Is(err, ErrBoundaryCube) != errors.Is(wantErr, ErrBoundaryCube) {
			t.Fatalf("arena %v, %+v: BuildSchedule error %v, reference %v", arena.Bounds().Hi, c, err, wantErr)
		}
		if !reflect.DeepEqual(sched, want) {
			t.Fatalf("arena %v, %+v: schedule\n%+v\nreference\n%+v", arena.Bounds().Hi, c, sched, want)
		}
		built = err == nil && c == alt
	}
	return built
}

// windowInput draws one input for the window oracles: a 1-4-D arena, square
// with a power-of-two side (so that Algorithm 1 runs its pyramid; up to 32
// in 1-D, halving per dimension) in one input of two and otherwise with
// sides 1-12, and a demand of one of four
// shapes: up to 20 points anywhere, a single cell, points in a slab one cell
// thin, or points on the arena's far faces, each of 0-255 jobs.
func windowInput(rng *rand.Rand) (*demand.Map, *grid.Grid) {
	sizes := make([]int, 1+rng.Intn(grid.MaxDim))
	pow2 := rng.Intn(2) == 0
	side := 1 << rng.Intn(7-len(sizes))
	for i := range sizes {
		if pow2 {
			sizes[i] = side
		} else {
			sizes[i] = 1 + rng.Intn(12)
		}
	}
	arena := grid.MustNew(sizes...)
	m := demand.NewMap(len(sizes))
	shape := rng.Intn(4)
	thin := rng.Intn(len(sizes))
	at := int32(rng.Intn(sizes[thin]))
	n := 1 + rng.Intn(20)
	if shape == 1 {
		n = 1
	}
	for range n {
		p := arena.PointAt(rng.Int63n(arena.Len()))
		switch shape {
		case 2:
			p[thin] = at
		case 3:
			face := rng.Intn(len(sizes))
			p[face] = int32(sizes[face] - 1)
		}
		if err := m.Add(p, rng.Int63n(256)); err != nil {
			panic(err)
		}
	}
	return m, arena
}

// TestDenseMatchesArenaTable pins the Dense view, whose table covers only the
// demand's bounding box, to the arena-wide reference on 2,400 random 1-4-D
// inputs from windowInput: OmegaC, Algorithm1 (W, cube side, branch and
// error) and BuildSchedule, at OmegaC's characterization and at one whose
// side (0-12, often past the bounding box on some axis; 0 takes
// ceil(omega)) and omega are drawn at random, schedules deep-equal with the same plan order, errors
// with the same text and the same ErrBoundaryCube.
func TestDenseMatchesArenaTable(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	built := 0
	for range 2400 {
		m, arena := windowInput(rng)
		alt := CubeChar{Omega: 0.05 + 10*rng.Float64(), Side: rng.Intn(13)}
		if compareWithArena(t, m, arena, alt) {
			built++
		}
	}
	if built < 500 {
		t.Errorf("only %d of 2400 random characterizations built a schedule", built)
	}
}

// FuzzDenseMatchesArenaTable compares the Dense view with the arena-wide
// reference on fuzzed inputs: a 1-4-D arena with sides 1-12 (dim and sides
// from shape), up to 20 demand points of 0-255 jobs anywhere in it (dim
// coordinate bytes and a job byte each), and a second characterization
// with side and omega from alt. OmegaC, Algorithm1 and BuildSchedule must
// equal the reference's.
func FuzzDenseMatchesArenaTable(f *testing.F) {
	f.Add(uint32(0x1234), []byte{1, 2, 3, 200, 5, 6, 7, 8}, uint16(0x0302))
	f.Add(uint32(0xbbbb1), []byte{11, 11, 255}, uint16(0x0101))
	f.Add(uint32(0x11113), []byte{0, 0, 0, 0, 90, 1, 1, 1, 1, 90}, uint16(0))
	f.Fuzz(func(t *testing.T, shape uint32, pts []byte, alt uint16) {
		dim := 1 + int(shape%4)
		sizes := make([]int, dim)
		for i := range sizes {
			sizes[i] = 1 + int(shape>>(2+4*i)%16)%12
		}
		arena := grid.MustNew(sizes...)
		m := demand.NewMap(dim)
		for k := 0; k+dim < len(pts) && k < 20*(dim+1); k += dim + 1 {
			var p grid.Point
			for i := range dim {
				p[i] = int32(int(pts[k+i]) % sizes[i])
			}
			if err := m.Add(p, int64(pts[k+dim])); err != nil {
				t.Fatal(err)
			}
		}
		compareWithArena(t, m, arena, CubeChar{Omega: float64(alt>>8) / 16, Side: int(alt & 0xf)})
	})
}
