package grid

// BoxIndex is a dense row-major offset indexer over a Box: it maps every
// lattice point of the box to an offset in [0, Volume). It is the
// bounded-region counterpart of Grid.Index — the identity that lets solvers
// working on a box neighborhood (the LP (2.1) supply graphs) replace
// map[Point] lookups with slice indexing, per the dense-index invariant in
// DESIGN.md.
type BoxIndex struct {
	box    Box
	stride [MaxDim]int64
}

// NewBoxIndex builds the indexer for b.
func NewBoxIndex(b Box) BoxIndex {
	ix := BoxIndex{box: b}
	stride := int64(1)
	for i := b.Dim - 1; i >= 0; i-- {
		ix.stride[i] = stride
		stride *= b.Side(i)
	}
	return ix
}

// Offset returns the row-major offset of p. The caller must ensure p is
// inside the box (checked in tests; hot path in solvers).
func (ix BoxIndex) Offset(p Point) int64 {
	off := int64(0)
	for i := 0; i < ix.box.Dim; i++ {
		off += int64(p[i]-ix.box.Lo[i]) * ix.stride[i]
	}
	return off
}

// PointAt inverts Offset: it returns the point at row-major offset off,
// which must lie in [0, Volume).
func (ix BoxIndex) PointAt(off int64) Point {
	p := ix.box.Lo
	for i := 0; i < ix.box.Dim; i++ {
		p[i] += int32(off / ix.stride[i])
		off %= ix.stride[i]
	}
	return p
}
