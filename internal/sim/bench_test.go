package sim

import "testing"

// relay forwards a hop counter around a ring.
type relay struct{ next NodeID }

func (r relay) OnMessage(ctx *Context, _ NodeID, msg Msg) {
	if msg.Kind != kindToken || msg.A == 0 {
		return
	}
	ctx.Send(r.next, token(msg.A-1))
}

// BenchmarkMessageThroughput measures raw simulator delivery rate on a
// 64-node ring carrying long-lived token chains.
func BenchmarkMessageThroughput(b *testing.B) {
	const ring = 64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := NewNetwork(1, 0)
		for j := 0; j < ring; j++ {
			if err := n.Add(NodeID(j), relay{next: NodeID((j + 1) % ring)}); err != nil {
				b.Fatal(err)
			}
		}
		for j := 0; j < 8; j++ {
			n.Inject(NodeID(j*7%ring), token(1000))
		}
		if err := n.Run(10_000); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFlood is floodProc without the logging: decaying branching token
// floods across a torus, the wide-round workload (a ring token chain
// delivers one message per sealed round — the sealed-round scheduler's
// worst case; a flood keeps dozens of cells active per round). B counts
// fork generations; capping it keeps the episode size bounded (uncapped,
// the fork recurrence is exponential).
type benchFlood struct {
	id   NodeID
	nbrs []NodeID
}

func (p *benchFlood) OnMessage(ctx *Context, _ NodeID, msg Msg) {
	if msg.Kind != kindToken || msg.A == 0 {
		return
	}
	k := int(msg.A+uint32(p.id)) % len(p.nbrs)
	ctx.Send(p.nbrs[k], token(msg.A-1))
	if msg.A%3 == 0 && msg.B < 2 {
		ctx.Send(p.nbrs[(k+1)%len(p.nbrs)], Msg{Kind: kindToken, A: msg.A / 2, B: msg.B + 1})
	}
}

func buildBenchFlood(b *testing.B, w, h int, seed int64) *Network {
	b.Helper()
	n := NewNetwork(seed, 0)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			id := NodeID(y*w + x)
			nbrs := []NodeID{
				NodeID(y*w + (x+1)%w),
				NodeID(y*w + (x+w-1)%w),
				NodeID(((y+1)%h)*w + x),
				NodeID(((y+h-1)%h)*w + x),
			}
			if err := n.Add(id, &benchFlood{id: id, nbrs: nbrs}); err != nil {
				b.Fatal(err)
			}
		}
	}
	return n
}

// benchmarkFlood runs warm flood episodes on a 64×64 torus under the
// sealed-round or the legacy scheduler (note their schedules differ — same
// protocol, different deterministic interleaving).
func benchmarkFlood(b *testing.B, sealed bool) {
	n := buildBenchFlood(b, 64, 64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Reset(1, sealed)
		for j := 0; j < 64; j++ {
			n.Inject(NodeID(j*67%4096), token(uint32(60+j)))
		}
		if err := n.Run(5_000_000); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(n.Delivered()), "deliveries/episode")
}

// BenchmarkShardedFloodWarm compares the legacy scheduler against the
// sealed-round scheduler (the shards=1 row, named after the
// Options.SimShards value that selects it) on a wide flood.
func BenchmarkShardedFloodWarm(b *testing.B) {
	b.Run("legacy", func(b *testing.B) { benchmarkFlood(b, false) })
	b.Run("shards=1", func(b *testing.B) { benchmarkFlood(b, true) })
}

// BenchmarkShardedRingWarm is BenchmarkMessageThroughputWarm's exact
// workload on the sealed-round scheduler — the honest worst-case overhead
// row: eight token chains mean eight deliveries per round, so the
// per-round barrier cost is amortized over almost nothing.
func BenchmarkShardedRingWarm(b *testing.B) {
	const ring = 64
	n := NewNetwork(1, 0)
	for j := 0; j < ring; j++ {
		if err := n.Add(NodeID(j), relay{next: NodeID((j + 1) % ring)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Reset(1, true)
		for j := 0; j < 8; j++ {
			n.Inject(NodeID(j*7%ring), token(1000))
		}
		if err := n.Run(10_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMessageThroughputWarm is BenchmarkMessageThroughput on one
// long-lived network reset per iteration: the steady state of the online
// layer's warm-started capacity probes. Messages are inline Msg values in
// retained ring buffers, so a warm episode performs zero allocations.
func BenchmarkMessageThroughputWarm(b *testing.B) {
	const ring = 64
	n := NewNetwork(1, 0)
	for j := 0; j < ring; j++ {
		if err := n.Add(NodeID(j), relay{next: NodeID((j + 1) % ring)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Reset(1, false)
		for j := 0; j < 8; j++ {
			n.Inject(NodeID(j*7%ring), token(1000))
		}
		if err := n.Run(10_000); err != nil {
			b.Fatal(err)
		}
	}
}
