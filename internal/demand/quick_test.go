package demand

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/grid"
)

// TestQuickSequencePreservesMultiset property-checks, over randomly
// generated demand maps and every order policy, that expansion to an
// arrival sequence is demand-preserving.
func TestQuickSequencePreservesMultiset(t *testing.T) {
	f := func(seed int64, nPoints uint8, orderPick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMap(2)
		for i := 0; i < int(nPoints%12)+1; i++ {
			p := grid.P(rng.Intn(8), rng.Intn(8))
			if err := m.Add(p, rng.Int63n(9)+1); err != nil {
				return false
			}
		}
		orders := []Order{OrderSorted, OrderShuffled, OrderRoundRobin}
		order := orders[int(orderPick)%len(orders)]
		seq, err := SequenceOf(m, order, rng)
		if err != nil {
			return false
		}
		back := NewMap(2)
		for i := 0; i < seq.Len(); i++ {
			if err := back.Add(seq.At(i), 1); err != nil {
				return false
			}
		}
		if back.Total() != m.Total() {
			return false
		}
		for _, p := range m.Support() {
			if back.At(p) != m.At(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickBoundingBoxContainsSupport property-checks the bounding box
// invariant used by every solver that clips arenas.
func TestQuickBoundingBoxContainsSupport(t *testing.T) {
	f := func(seed int64, nPoints uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMap(2)
		for i := 0; i < int(nPoints%10)+1; i++ {
			p := grid.P(rng.Intn(20)-10, rng.Intn(20)-10)
			if err := m.Add(p, 1); err != nil {
				return false
			}
		}
		b, ok := m.BoundingBox()
		if !ok {
			return false
		}
		for _, p := range m.Support() {
			if !b.Contains(p) {
				return false
			}
		}
		// Minimality: every face touches at least one support point.
		touchLo0, touchHi0 := false, false
		for _, p := range m.Support() {
			if p[0] == b.Lo[0] {
				touchLo0 = true
			}
			if p[0] == b.Hi[0] {
				touchHi0 = true
			}
		}
		return touchLo0 && touchHi0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// FuzzParseSpec exercises the JSON codec against arbitrary input; it must
// never panic, and on success the round trip must preserve the instance.
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(`{"arena":[4,4],"demands":[{"at":[1,2],"jobs":3}]}`))
	f.Add([]byte(`{"arena":[2],"demands":[]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"arena":[0],"demands":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		arena, m, err := ParseSpec(data)
		if err != nil {
			return
		}
		out, err := EncodeSpec(arena, m)
		if err != nil {
			t.Fatalf("round trip encode failed for valid instance: %v", err)
		}
		_, m2, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if m2.Total() != m.Total() {
			t.Fatalf("total changed: %d -> %d", m.Total(), m2.Total())
		}
	})
}
