// Command commprof reproduces the paper's profiling figures from one
// CMT-bone run: the gprof-style execution profile (Figure 4), the
// per-rank MPI time fractions (Figure 8, mpiP), the top-20 MPI call sites
// (Figure 9), and the message-size table (Figure 10).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/comm"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/solver"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("commprof: ")

	np := flag.Int("np", 8, "number of ranks (the paper's Figure 4 uses 8)")
	n := flag.Int("n", 8, "GLL points per direction per element")
	local := flag.Int("local", 2, "elements per rank per direction")
	steps := flag.Int("steps", 5, "timesteps")
	netName := flag.String("net", netmodel.QDR.Name, "network model: "+strings.Join(netmodel.Names(), ", "))
	which := flag.String("profile", "all", "which profile to print: exec, mpirank, mpitop, mpisize, all")
	modeled := flag.Bool("modeled", true, "base Figure 8 fractions on modeled (cluster) time instead of host wall time")
	traceFile := flag.String("trace", "", "write a per-message CSV trace to this file (network-model input)")
	traceCap := flag.Int("trace-cap", 0, fmt.Sprintf("cap the in-memory message trace at this many events (0 = %d); excess events are counted, not stored", obs.DefaultCap))
	cli.Parse()

	model, err := netmodel.ByName(*netName)
	if err != nil {
		log.Fatalf("-net: %v", err)
	}
	cfg := solver.DefaultConfig(*np, *n, *local)

	opts := cfg.CommOptions(model)
	var tel *obs.Tracer
	if *traceFile != "" {
		tel = obs.NewTracer()
		tel.Cap = *traceCap
		opts.Tracer = obs.NewCommTracer(tel, nil)
	}

	recs := make([]*obs.RankTracer, *np)
	stats, err := comm.Run(*np, opts, func(r *comm.Rank) error {
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		s.SetInitial(solver.GaussianPulse(
			float64(cfg.ElemGrid[0])/2, float64(cfg.ElemGrid[1])/2, float64(cfg.ElemGrid[2])/2,
			0.1, 0.5))
		s.Run(*steps)
		recs[r.ID()] = s.Rec
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("CMT-bone profile run: %d ranks, N=%d, %d elements/rank, %d steps, net=%s\n\n",
		*np, *n, (*local)*(*local)*(*local), *steps, model.Name)

	show := func(name string) bool { return *which == "all" || *which == name }
	if show("exec") {
		fmt.Print(report.Fig4ExecutionProfile(obs.Merge(recs...), stats))
		fmt.Println()
	}
	if show("mpirank") {
		fmt.Print(report.Fig8MPIFractions(stats.RankMPIFractions(), *modeled))
		fmt.Println()
	}
	if show("mpitop") {
		fmt.Print(report.Fig9TopMPICalls(stats.AggregateSites(), 20, stats.TotalAppWall()))
		fmt.Println()
	}
	if show("mpisize") {
		fmt.Print(report.Fig10MessageSizes(stats.AggregateSites(), 12))
	}
	if tel != nil {
		flows := tel.Flows()
		f, err := os.Create(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := obs.WriteFlowsCSV(f, flows); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		sum := obs.SummarizeFlows(flows)
		fmt.Printf("\ntrace: %d messages, %d bytes (mean %.1f B, mean %.2f hops) -> %s\n",
			sum.Messages, sum.Bytes, sum.MeanBytes, sum.MeanHops, *traceFile)
		if _, dropped := tel.Dropped(); dropped > 0 {
			fmt.Printf("trace: cap of %d reached, %d further events dropped (excluded from the totals above)\n",
				len(flows), dropped)
		}
	}
}
