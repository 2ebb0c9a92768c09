// Command scalebench runs weak- and strong-scaling studies of CMT-bone
// under a network model and prints the results as a table (optionally
// CSV), the scaling data a co-design study starts from.
//
// Weak scaling holds the per-rank problem fixed while ranks grow; strong
// scaling holds the global problem fixed and divides it across ranks.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/comm"
	"repro/internal/loadbal"
	"repro/internal/netmodel"
	"repro/internal/pool"
	"repro/internal/solver"
)

type row struct {
	mode     string
	ranks    int
	elems    int // per rank
	makespan float64
	mpiFrac  float64
	bytes    int64 // per rank
	flops    int64 // per rank
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("scalebench: ")

	n := flag.Int("n", 6, "GLL points per direction per element")
	steps := flag.Int("steps", 2, "timesteps per measurement")
	netName := flag.String("net", netmodel.QDR.Name, "network model: "+strings.Join(netmodel.Names(), ", "))
	csvPath := flag.String("csv", "", "also write results as CSV to this file")
	maxRanks := flag.Int("maxranks", 64, "largest rank count (rank counts are cubes up to this)")
	workersFlag := flag.Int("workers", 0, "intra-rank worker-pool width (0 = GOMAXPROCS/ranks per run, min 1)")
	useLB := flag.Bool("loadbal", false, "append the skewed-load scenario study (balanced / skewed / skewed+loadbal)")
	lbThreshold := flag.Float64("imbalance-threshold", 1.2, "rank cost imbalance triggering a rebalance in the loadbal scenario")
	lbEvery := flag.Int("rebalance-every", 2, "steps between load-balance epochs in the loadbal scenario")
	useOverlap := flag.Bool("overlap", false, "append the compute/communication overlap study (blocking vs split-phase exchange)")
	useHier := flag.Bool("hier", false, "append the hierarchical-collectives scaling study (flat vs two-level collectives on modeled fat-tree and dragonfly fabrics)")
	hierMaxRanks := flag.Int("hier-maxranks", 4096, "largest modeled rank count of the -hier study (sweeps 256, 1024, ... up to this)")
	cli.Parse()
	workers = *workersFlag

	model, err := netmodel.ByName(*netName)
	if err != nil {
		log.Fatalf("-net: %v", err)
	}

	var counts []int
	for c := 1; c*c*c <= *maxRanks; c++ {
		counts = append(counts, c*c*c)
	}

	var rows []row
	// Weak scaling: 2x2x2 elements per rank at every size. To trace the
	// largest run, give cmtbone the same shape (-np 64 -n 6 -local 2
	// -steps 2 for the defaults) with -trace/-metrics/-debug-addr.
	for _, p := range counts {
		rows = append(rows, measure(t{"weak", p, *n, 2, [3]int{}, *steps}, model))
	}
	// Strong scaling: a fixed global mesh sized for the largest count.
	big := counts[len(counts)-1]
	bigGrid := comm.FactorGrid(big)
	global := [3]int{bigGrid[0] * 2, bigGrid[1] * 2, bigGrid[2] * 2}
	for _, p := range counts {
		pg := comm.FactorGrid(p)
		ok := true
		for d := 0; d < 3; d++ {
			if global[d]%pg[d] != 0 {
				ok = false
			}
		}
		if !ok {
			continue
		}
		rows = append(rows, measure(t{"strong", p, *n, 0, global, *steps}, model))
	}

	fmt.Printf("CMT-bone scaling study: N=%d, %d steps, network %s\n\n", *n, *steps, model.Name)
	fmt.Printf("%-8s %7s %11s %15s %9s %13s %13s\n",
		"mode", "ranks", "elems/rank", "makespan (s)", "MPI %", "bytes/rank", "flops/rank")
	for _, r := range rows {
		fmt.Printf("%-8s %7d %11d %15.6f %8.2f%% %13d %13d\n",
			r.mode, r.ranks, r.elems, r.makespan, 100*r.mpiFrac, r.bytes, r.flops)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(f, "mode,ranks,elems_per_rank,makespan_s,mpi_frac,bytes_per_rank,flops_per_rank")
		for _, r := range rows {
			fmt.Fprintf(f, "%s,%d,%d,%.9f,%.6f,%d,%d\n",
				r.mode, r.ranks, r.elems, r.makespan, r.mpiFrac, r.bytes, r.flops)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *csvPath)
	}

	if *useLB {
		loadbalStudy(*n, model, loadbal.Config{Threshold: *lbThreshold, Every: *lbEvery})
	}
	if *useOverlap {
		overlapStudy(*n, model)
	}
	if *useHier {
		hierStudy(*hierMaxRanks)
	}
}

// hierStudy runs the flat-vs-hierarchical collectives sweep (measurement
// core in internal/bench, shared with benchdiff) and prints its table.
func hierStudy(maxRanks int) {
	res, err := bench.RunHierStudy(bench.HierOptions{MaxRanks: maxRanks})
	if err != nil {
		log.Fatalf("hier study: %v", err)
	}

	fmt.Printf("\nhierarchical collectives (diag allreduce %d floats, resid %d, %d iters, background load %.2f):\n\n",
		res.DiagLen, res.ResidLen, res.Iters, res.Load)
	fmt.Printf("%-10s %7s %7s %14s %14s %12s %12s %11s\n",
		"topology", "ranks", "method", "diag (us)", "resid (us)", "bcast (us)", "barrier (us)", "vs flat")
	for _, s := range res.Scenarios {
		vsFlat := ""
		if s.Method == "hier" {
			vsFlat = fmt.Sprintf("%10.1f%%", 100*s.DiagReduction)
		}
		fmt.Printf("%-10s %7d %7s %14.2f %14.2f %12.2f %12.2f %11s\n",
			s.Topo, s.Ranks, s.Method, 1e6*s.DiagTime, 1e6*s.ResidTime,
			1e6*s.BcastTime, 1e6*s.BarrierTime, vsFlat)
	}
}

// overlapStudy runs the split-phase-vs-blocking study (measurement core
// in internal/bench, shared with benchdiff) and prints its table.
func overlapStudy(nGLL int, model netmodel.Model) {
	res, err := bench.OverlapStudy(bench.OverlapOptions{
		N: nGLL, Workers: workers, Trace: true, Net: model, NetSet: true,
	})
	if err != nil {
		log.Fatalf("overlap study: %v", err)
	}

	fmt.Printf("\noverlap scenario (%d ranks, %d^3 elements/rank, N=%d, %d steps, network %s):\n\n",
		res.Scenarios[0].Ranks, res.LocalElems, res.N, res.Steps, res.Net)
	fmt.Printf("%-10s %7s %15s %9s %13s %14s %12s\n",
		"scenario", "ranks", "makespan (s)", "MPI %", "hidden (s)", "interior/bnd", "vs blocking")
	for _, s := range res.Scenarios {
		fmt.Printf("%-10s %7d %15.6f %8.2f%% %13.6f %8d/%-5d %11.1f%%\n",
			s.Scenario, s.Ranks, s.Makespan, 100*s.MPIFrac, s.HiddenSeconds,
			s.InteriorElems, s.BoundaryElems, 100*s.ReductionVsBlocking)
	}
}

// loadbalStudy runs the skewed-load study (measurement core in
// internal/bench, shared with benchdiff) and prints its table.
func loadbalStudy(nGLL int, model netmodel.Model, lbCfg loadbal.Config) {
	res, err := bench.LoadbalStudy(bench.LoadbalOptions{
		N: nGLL, Workers: workers, Threshold: lbCfg.Threshold, Every: lbCfg.Every,
		Trace: true, Net: model, NetSet: true,
	})
	if err != nil {
		log.Fatalf("loadbal study: %v", err)
	}

	fmt.Printf("\nskewed-load scenario (rank %d elements %gx, N=%d, %d steps, rebalance every %d, threshold %.2f):\n\n",
		res.HotRank, res.HotFactor, res.N, res.Steps, res.Every, res.Threshold)
	fmt.Printf("%-15s %7s %15s %9s %12s %11s %11s\n",
		"scenario", "ranks", "makespan (s)", "MPI %", "rebalances", "elems moved", "vs skewed")
	for _, s := range res.Scenarios {
		fmt.Printf("%-15s %7d %15.6f %8.2f%% %12d %11d %10.1f%%\n",
			s.Scenario, s.Ranks, s.Makespan, 100*s.MPIFrac, s.Rebalances, s.MigratedElems,
			100*s.ReductionVsSkewed)
	}
}

type t struct {
	mode   string
	ranks  int
	n      int
	local  int    // weak: elements per rank per direction
	global [3]int // strong: global element grid
	steps  int
}

// workers is the -workers flag: the intra-rank pool width every
// measured run uses. 0 picks pool.DefaultWorkers per rank count, so a
// sweep never oversubscribes the host as ranks grow.
var workers int

func measure(cfg t, model netmodel.Model) row {
	sc := solver.DefaultConfig(cfg.ranks, cfg.n, max(cfg.local, 1))
	if cfg.mode == "strong" {
		sc.ElemGrid = cfg.global
	}
	sc.Workers = workers
	if sc.Workers == 0 {
		sc.Workers = pool.DefaultWorkers(cfg.ranks)
	}
	var flops int64
	stats, err := comm.Run(cfg.ranks, sc.CommOptions(model), func(r *comm.Rank) error {
		s, err := solver.New(r, sc)
		if err != nil {
			return err
		}
		defer s.Close()
		s.SetInitial(solver.GaussianPulse(
			float64(sc.ElemGrid[0])/2, float64(sc.ElemGrid[1])/2, float64(sc.ElemGrid[2])/2,
			0.1, 0.5))
		rep := s.Run(cfg.steps)
		if r.ID() == 0 {
			flops = rep.Ops.Flops()
		}
		return nil
	})
	if err != nil {
		log.Fatalf("%s/%d ranks: %v", cfg.mode, cfg.ranks, err)
	}
	mpi := 0.0
	for _, f := range stats.RankMPIFractions() {
		mpi += f.FracModeled()
	}
	mpi /= float64(cfg.ranks)
	var bytes int64
	for _, site := range stats.AggregateSites() {
		bytes += site.Bytes
	}
	bytes /= int64(cfg.ranks)
	box, _ := sc.Mesh()
	return row{
		mode: cfg.mode, ranks: cfg.ranks, elems: box.LocalElems(),
		makespan: stats.MaxVirtualTime(), mpiFrac: mpi, bytes: bytes, flops: flops,
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
