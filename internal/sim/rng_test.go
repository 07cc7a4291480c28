package sim

import (
	"math/rand"
	"testing"
)

// TestIntnMatchesMathRand pins the scheduler's inlined draw against the real
// math/rand.(*Rand).Intn: same values from the same number of source draws,
// across power-of-two bounds (mask path), small odd bounds (cached
// rejection threshold + fastmod path), and bounds that exercise the
// rejection loop's cache invalidation as k changes between calls.
func TestIntnMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 20080527} {
		// Fresh network: draws go through the generator captured by
		// NewNetwork. Reset network: the same seed restores the captured
		// post-Seed state by copy. Both must match the reference stream
		// exactly; TestSeedFallbackMatchesMathRand covers the fallback.
		cold := NewNetwork(seed)
		warm := NewNetwork(seed)
		warm.Reset(seed)
		ref := rand.New(rand.NewSource(seed))
		refW := rand.New(rand.NewSource(seed))
		// Sweep k in a pattern that alternates between bounds so the
		// single-entry (modK, modMaxv, modM) cache is both hit and replaced.
		ks := []int{1, 3, 2, 3, 5, 7, 7, 7, 6, 100, 6, 64, 63, 1000, 999, 3}
		for round := 0; round < 200; round++ {
			for _, k := range ks {
				if got, want := cold.intn(k), ref.Intn(k); got != want {
					t.Fatalf("seed %d round %d: fresh intn(%d) = %d, want %d",
						seed, round, k, got, want)
				}
				if got, want := warm.intn(k), refW.Intn(k); got != want {
					t.Fatalf("seed %d round %d: warm intn(%d) = %d, want %d",
						seed, round, k, got, want)
				}
			}
		}
	}
}

// TestFreshNetworkUsesCapturedGenerator pins that NewNetwork captures the
// generator mirror: a network that was never Reset already draws through
// the in-struct generator, so a runner's first episode takes the same RNG
// path as its warm ones.
func TestFreshNetworkUsesCapturedGenerator(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 20080527} {
		n := NewNetwork(seed)
		if !n.fastOK || n.pristineSeed != seed {
			t.Fatalf("seed %d: fresh network has fastOK=%v pristineSeed=%d, want the captured generator",
				seed, n.fastOK, n.pristineSeed)
		}
	}
}

// TestReseedMatchesSeed pins the copy reseed: a network reset by copying the
// captured post-Seed generator must produce the identical draw stream to one
// reseeded through rand's Seed, including after switching seeds (which
// invalidates the copy) and switching back.
func TestReseedMatchesSeed(t *testing.T) {
	n := NewNetwork(1) // a different seed, so the first Reset(9) reseeds
	stream := func(seed int64) []int {
		n.Reset(seed)
		out := make([]int, 50)
		for i := range out {
			out[i] = n.intn(5)
		}
		return out
	}
	want9 := stream(9) // first Reset(9): Seed path + snapshot
	got9 := stream(9)  // snapshot-copy path
	want3 := stream(3) // seed switch: Seed path again
	got9b := stream(9) // back to 9: Seed path (snapshot was replaced)
	got3 := stream(3)  // and 3 again
	for i := range want9 {
		if got9[i] != want9[i] || got9b[i] != want9[i] {
			t.Fatalf("draw %d: copy-reseed diverged from Seed for seed 9", i)
		}
		if got3[i] != want3[i] {
			t.Fatalf("draw %d: copy-reseed diverged from Seed for seed 3", i)
		}
	}
}

// hiddenSource exposes a math/rand source only through rand.Source, hiding
// its Uint64 method, so captureALFG cannot mirror it.
type hiddenSource struct{ rand.Source }

// TestSeedFallbackMatchesMathRand drives the plain Seed fallback that Reset
// takes when generator capture fails: across repeated and switched seeds,
// every draw must match a freshly seeded math/rand stream.
func TestSeedFallbackMatchesMathRand(t *testing.T) {
	n := NewNetwork(1)
	n.src = hiddenSource{rand.NewSource(1)}
	ks := []int{1, 3, 2, 5, 7, 6, 100, 64, 63, 1000, 999}
	for _, seed := range []int64{9, 9, 3, 9} {
		n.Reset(seed)
		if n.fastOK {
			t.Fatalf("seed %d: capture succeeded on a source without Uint64", seed)
		}
		ref := rand.New(rand.NewSource(seed))
		for round := 0; round < 50; round++ {
			for _, k := range ks {
				if got, want := n.intn(k), ref.Intn(k); got != want {
					t.Fatalf("seed %d round %d: fallback intn(%d) = %d, want %d",
						seed, round, k, got, want)
				}
			}
		}
	}
}
