// Command cmvrp solves a CMVRP instance described by a JSON demand spec:
// it computes the offline characterization omega_c, the Algorithm 1
// capacity estimate, builds and verifies a concrete vehicle schedule, and
// optionally measures the online capacity Won by simulation.
//
// Usage:
//
//	cmvrp -spec demand.json [-online] [-show] [-trace] [-seed 1] [-search gossip] [-fanout 3] [-shards S]
//
// -show renders ASCII heat maps of the demand and schedule (2-D arenas);
// -trace streams the online simulation's event log. -shards selects the
// simulator scheduler for -online/-trace runs: 0 (default) is the legacy
// scheduler; any S >= 1 selects sealed rounds, identical for every such S.
//
// The spec format:
//
//	{
//	  "arena": [64, 64],
//	  "demands": [ {"at": [32, 32], "jobs": 500}, ... ]
//	}
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/demand"
	"repro/internal/offline"
	"repro/internal/online"
	"repro/internal/render"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cmvrp:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cmvrp", flag.ContinueOnError)
	specPath := fs.String("spec", "", "path to the JSON demand spec (required)")
	onlineRun := fs.Bool("online", false, "also measure the online capacity Won")
	show := fs.Bool("show", false, "render demand and schedule heat maps (2-D only)")
	trace := fs.Bool("trace", false, "stream the online event log (implies -online)")
	seed := fs.Int64("seed", 1, "determinism seed for the online simulation")
	search := fs.String("search", "diffuse", "Phase I dissemination protocol: diffuse or gossip")
	fanout := fs.Int("fanout", 0, "gossip fanout bound (0 = full flood; requires -search gossip)")
	shards := fs.Int("shards", 0, "simulator scheduler: 0 = legacy, any value >= 1 = sealed rounds (identical for every such value)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards < 0 {
		return fmt.Errorf("-shards %d must be >= 0", *shards)
	}
	if *fanout < 0 {
		return fmt.Errorf("-fanout %d must be >= 0", *fanout)
	}
	var protocol online.SearchProtocol
	switch *search {
	case "diffuse":
		protocol = online.SearchDiffuse
	case "gossip":
		protocol = online.SearchGossip
	default:
		return fmt.Errorf("-search must be diffuse or gossip, got %q", *search)
	}
	if *fanout != 0 && protocol != online.SearchGossip {
		return fmt.Errorf("-fanout requires -search gossip")
	}
	if *specPath == "" {
		return fmt.Errorf("-spec is required")
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	arena, m, err := demand.ParseSpec(raw)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "instance: %d-D arena, %d jobs at %d positions (max %d per position)\n",
		arena.Dim(), m.Total(), m.SupportSize(), m.Max())

	if *show && arena.Dim() == 2 {
		hm, err := render.DemandHeatmap(m, arena)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\ndemand heat map:\n%s\n", hm)
	}

	// The characterization and the estimate print even when the schedule
	// then fails.
	sol, err := offline.Solve(m, arena)
	if !sol.Characterized {
		return err
	}
	char := sol.Char
	fmt.Fprintf(out, "omega_c (Cor 2.2.7 lower-bound characterization): %.4g (cube side %d)\n",
		char.Omega, char.Side)
	if sol.Alg1Err == nil {
		fmt.Fprintf(out, "Algorithm 1 capacity estimate: %.4g (branch %s)\n", sol.Alg1.W, sol.Alg1.Branch)
	} else {
		fmt.Fprintf(out, "Algorithm 1 skipped: %v\n", sol.Alg1Err)
	}
	if err != nil {
		return err
	}
	sched := sol.Schedule
	fmt.Fprintf(out, "verified offline schedule: W = %.4g with %d active vehicles\n",
		sched.W, len(sched.Plans))
	if *show && arena.Dim() == 2 {
		sm, err := render.ScheduleMap(sched, arena)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nschedule map:\n%s\n", sm)
	}

	if *onlineRun || *trace {
		seq, err := demand.SequenceOf(m, demand.OrderSorted, nil)
		if err != nil {
			return err
		}
		// One partition serves the trace run and every capacity-search probe.
		part, err := online.NewPartition(arena, char.Side)
		if err != nil {
			return err
		}
		if *trace {
			// Theorem 1.4.2's capacity, (4*3^l+l)*max(omega_c,1) for the
			// arena's dimension l.
			l := float64(arena.Dim())
			w := (4*math.Pow(3, l) + l) * math.Max(char.Omega, 1)
			fmt.Fprintf(out, "\nonline event trace at W = %.4g:\n", w)
			r, err := online.NewRunner(online.Options{
				Arena: arena, CubeSide: char.Side, Partition: part,
				Capacity: w, Seed: *seed, SimShards: *shards,
				Search: protocol, GossipFanout: *fanout,
				Tracer: &online.WriterTracer{W: out},
			})
			if err != nil {
				return err
			}
			res, err := r.Run(seq)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "served %d/%d jobs, %d replacements, %d messages\n",
				res.Served, seq.Len(), res.Replacements, res.Messages)
		}
		won, err := online.MinCapacity(seq, online.Options{
			Arena: arena, CubeSide: char.Side, Partition: part,
			Seed: *seed, SimShards: *shards,
			Search: protocol, GossipFanout: *fanout,
		}, 0.05)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "measured Won (online, sorted arrivals): %.4g (%.2fx omega_c)\n",
			won, won/math.Max(char.Omega, 1))
	}
	return nil
}
