package diffuse

import (
	"testing"

	"repro/internal/sim"
)

// benchHost is a minimal engine host for benchmarks.
type benchHost struct {
	eng       Engine
	neighbors []sim.NodeID
	candidate bool
	done      bool
}

func (h *benchHost) Neighbors() []sim.NodeID          { return h.neighbors }
func (h *benchHost) Fanout() int                      { return 0 }
func (h *benchHost) IsCandidate() bool                { return h.candidate }
func (h *benchHost) OnComplete(sim.Sender, int, bool) { h.done = true }
func (h *benchHost) OnPayload(sim.Sender, Payload)    {}

func (h *benchHost) OnMessage(ctx *sim.Context, from sim.NodeID, msg sim.Msg) {
	if h.eng.Handle(h, ctx, from, msg) {
		return
	}
	if msg.Kind == kindStart {
		h.eng.StartSearch(h, ctx)
	}
}

// BenchmarkSearchGrid times a full Phase I sweep of a k x k distance-2 grid
// with the single candidate in the far corner — the worst case for the
// online strategy's replacement machinery.
func BenchmarkSearchGrid(b *testing.B) {
	const k = 12
	id := func(x, y int) sim.NodeID { return sim.NodeID(x*k + y) }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net := sim.NewNetwork(1, k*k)
		hosts := make([]*benchHost, k*k)
		for x := 0; x < k; x++ {
			for y := 0; y < k; y++ {
				var adj []sim.NodeID
				for dx := -2; dx <= 2; dx++ {
					for dy := -2; dy <= 2; dy++ {
						if dx == 0 && dy == 0 || abs(dx)+abs(dy) > 2 {
							continue
						}
						nx, ny := x+dx, y+dy
						if nx >= 0 && nx < k && ny >= 0 && ny < k {
							adj = append(adj, id(nx, ny))
						}
					}
				}
				h := &benchHost{neighbors: adj, candidate: x == k-1 && y == k-1}
				h.eng.Reset()
				hosts[id(x, y)] = h
				if err := net.Add(id(x, y), h); err != nil {
					b.Fatal(err)
				}
			}
		}
		net.Inject(0, startMsg())
		if err := net.Run(10_000_000); err != nil {
			b.Fatal(err)
		}
		if !hosts[0].done {
			b.Fatal("search did not complete")
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
