package grid

import (
	"math/rand"
	"testing"
)

func TestBoxIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		dim := 1 + rng.Intn(3)
		var lo, hi Point
		for i := 0; i < dim; i++ {
			lo[i] = int32(rng.Intn(11) - 5)
			hi[i] = lo[i] + int32(rng.Intn(5))
		}
		b, err := NewBox(dim, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		ix := NewBoxIndex(b)
		// Points() is row-major, so offsets must be 0,1,2,... in that order:
		// Points()[Offset(p)] == p round-trips every point of the box, and
		// PointAt inverts Offset.
		for want, p := range b.Points() {
			if off := ix.Offset(p); off != int64(want) {
				t.Fatalf("Offset(%v) = %d, want %d (row-major)", p, off, want)
			}
			if q := ix.PointAt(int64(want)); q != p {
				t.Fatalf("PointAt(%d) = %v, want %v", want, q, p)
			}
		}
	}
}

func TestVolumeChecked(t *testing.T) {
	b, err := NewBox(2, P(0, 0), P(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	v, err := b.VolumeChecked()
	if err != nil || v != 20 {
		t.Errorf("VolumeChecked = %d, %v; want 20", v, err)
	}
	const far = 2097152
	huge, err := NewBox(3, P(0, 0, 0), P(far, far, far))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := huge.VolumeChecked(); err == nil {
		t.Error("overflowing volume should return ErrOverflow")
	}
}
