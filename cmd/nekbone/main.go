// Command nekbone runs the Nekbone baseline mini-app: a conjugate-
// gradient solve of a spectral-element Helmholtz system with dssum
// communication, on an in-process communicator.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro/internal/cli"
	"repro/internal/comm"
	"repro/internal/gs"
	nb "repro/internal/nekbone"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nekbone: ")

	np := flag.Int("np", 8, "number of ranks")
	n := flag.Int("n", 8, "GLL points per direction per element")
	local := flag.Int("local", 2, "elements per rank per direction")
	iters := flag.Int("iters", 50, "CG iterations")
	gsName := flag.String("gs", "pairwise", "gather-scatter method: pairwise, crystal, allreduce")
	autotune := flag.Bool("autotune", false, "autotune the gather-scatter method at startup")
	netName := flag.String("net", netmodel.QDR.Name, "network model: "+strings.Join(netmodel.Names(), ", "))
	showProfile := flag.Bool("profile", false, "print the execution profile")
	cli.Parse()

	cfg := nb.DefaultConfig(*np, *n, *local)
	cfg.Iters = *iters
	m, err := gs.ParseMethod(*gsName)
	if err != nil {
		log.Fatalf("-gs: %v", err)
	}
	cfg.GSMethod = m
	cfg.AutoTune = *autotune

	model, err := netmodel.ByName(*netName)
	if err != nil {
		log.Fatalf("-net: %v", err)
	}

	fmt.Printf("Nekbone: %d ranks, N=%d, %d elements/rank, %d CG iterations, gs=%s net=%s\n",
		*np, *n, (*local)*(*local)*(*local), *iters, *gsName, model.Name)

	reports := make([]nb.Report, *np)
	recs := make([]*obs.RankTracer, *np)
	methods := make([]gs.Method, *np)
	stats, err := comm.Run(*np, comm.Options{
		Model: model, Grid: cfg.ProcGrid, Periodic: cfg.Periodic,
	}, func(r *comm.Rank) error {
		s, err := nb.New(r, cfg)
		if err != nil {
			return err
		}
		reports[r.ID()] = s.Run()
		recs[r.ID()] = s.Rec
		methods[r.ID()] = s.GS().Method()
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	rep := reports[0]
	fmt.Printf("done: iters=%d final residual=%.6e\n", rep.Iters, rep.Residual)
	fmt.Printf("gather-scatter method in use: %s\n", methods[0])
	fmt.Printf("wall time: %.3fs   modeled makespan: %.6fs\n", stats.Wall, stats.MaxVirtualTime())

	if *showProfile {
		fmt.Println()
		fmt.Print(report.Fig4ExecutionProfile(obs.Merge(recs...), stats))
		fmt.Println()
		fmt.Print(report.Fig9TopMPICalls(stats.AggregateSites(), 20, stats.TotalAppWall()))
	}
}
