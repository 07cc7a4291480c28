package sim

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"testing"
)

// rngBounds are the draw bounds the reference tests sweep: power-of-two
// bounds (the mask path), other small bounds, and two bounds large enough
// that the rejection test fires. The last two, 2^62+1 and 3*2^61-3 on
// 64-bit platforms, reject about one draw in four.
var rngBounds = []int{1, 3, 2, 3, 5, 7, 7, 6, 100, 64, 63, 1000, 999, math.MaxInt/2 + 2, math.MaxInt / 4 * 3}

// matchIntn checks n's next draws against math/rand/v2's Rand.IntN over a
// PCG seeded with (uint64(seed), 0): the same values from the same number
// of generator draws. The standard library draws differently on 32-bit
// platforms, so callers skip there (skipOn32Bit).
func matchIntn(t *testing.T, n *Network, seed int64, what string) {
	t.Helper()
	ref := rand.New(rand.NewPCG(uint64(seed), 0))
	for round := 0; round < 200; round++ {
		for _, k := range rngBounds {
			if got, want := n.intn(k), ref.IntN(k); got != want {
				t.Fatalf("%s seed %d round %d: intn(%d) = %d, want %d",
					what, seed, round, k, got, want)
			}
		}
	}
}

func skipOn32Bit(t *testing.T) {
	if bits.UintSize == 32 {
		t.Skip("rand/v2's IntN takes its 32-bit path on this platform")
	}
}

// TestIntnMatchesMathRand is the generator's reference test: on fresh
// networks the scheduler's inlined draw equals math/rand/v2's Rand.IntN
// over the same seeded PCG, draw for draw.
func TestIntnMatchesMathRand(t *testing.T) {
	skipOn32Bit(t)
	for _, seed := range []int64{1, 7, 42, 20080527, -1} {
		matchIntn(t, NewNetwork(seed, 0), seed, "fresh")
	}
}

// TestReseedMatchesSeed pins Reset's reseed: one network reset to its own
// seed, to the same seed twice in a row, and across seed switches (back to
// an earlier seed included) draws exactly the reference stream of the seed
// it was last reset to, whatever it drew before.
func TestReseedMatchesSeed(t *testing.T) {
	skipOn32Bit(t)
	n := NewNetwork(9, 0)
	for _, seed := range []int64{9, 9, 1, 42, 1, -1, -1, 20080527, 7} {
		n.Reset(seed, false)
		matchIntn(t, n, seed, "reset")
	}
}

// TestFreshNetworkUsesCapturedGenerator pins that NewNetwork holds the
// seeded generator by value: a network that was never Reset starts from
// the state rand.NewPCG(uint64(seed), 0) starts from, and from the state a
// used network reset to that seed restores, so a runner's first episode
// draws exactly as its warm ones. It compares generator states, so it
// holds on every platform.
func TestFreshNetworkUsesCapturedGenerator(t *testing.T) {
	used := NewNetwork(3, 0)
	for _, seed := range []int64{1, 7, 42, 20080527, -1} {
		n := NewNetwork(seed, 0)
		if want := *rand.NewPCG(uint64(seed), 0); n.rng != want {
			t.Fatalf("seed %d: fresh generator %+v, want rand.NewPCG's %+v", seed, n.rng, want)
		}
		used.intn(5)
		used.Reset(seed, false)
		if used.rng != n.rng {
			t.Fatalf("seed %d: reset generator %+v, fresh %+v", seed, used.rng, n.rng)
		}
	}
}

// sinkNetwork keeps TestNewNetworkAllocs' network on the heap.
var sinkNetwork *Network

// TestNewNetworkAllocs pins what an empty network costs: one object, the
// Network itself, under 1 KB with its generator. A generator that carries
// kilobytes of state, as math/rand's lagged Fibonacci one did (2 objects,
// 15,616 bytes), fails here. It counts the least of five single builds
// read from runtime.MemStats.
func TestNewNetworkAllocs(t *testing.T) {
	runtime.GC() // start the runtime's mark workers outside the count
	objects, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sinkNetwork = NewNetwork(7, 0)
		runtime.ReadMemStats(&after)
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if objects != 1 || bytes >= 1024 {
		t.Errorf("NewNetwork(7, 0) allocated %d objects, %d bytes; want 1 object under 1,024 bytes",
			objects, bytes)
	}
}
