// Command cmtbone is the CMT-bone mini-app driver: it runs the
// discontinuous Galerkin spectral-element solver on an in-process
// communicator of -np ranks and reports the run summary, optionally with
// the execution and MPI profiles.
//
// Example (the paper's Figure 7 problem setup):
//
//	cmtbone -np 256 -n 10 -grid 8x8x4 -elems 40x40x16 -steps 1 -autotune
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"

	"repro/internal/checkpoint"
	"repro/internal/cli"
	"repro/internal/comm"
	"repro/internal/comm/tcptransport"
	"repro/internal/diag"
	"repro/internal/fault"
	"repro/internal/gs"
	"repro/internal/loadbal"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/report"
	"repro/internal/solver"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cmtbone: ")

	np := flag.Int("np", 8, "number of ranks")
	n := flag.Int("n", 8, "GLL points per direction per element (N)")
	local := flag.Int("local", 2, "elements per rank per direction (ignored with -grid/-elems)")
	gridStr := flag.String("grid", "", "processor grid AxBxC (default: near-cubic factorization of -np)")
	elemsStr := flag.String("elems", "", "global element grid AxBxC (default: grid * local)")
	steps := flag.Int("steps", 5, "timesteps")
	gsName := flag.String("gs", "pairwise", "gather-scatter method: pairwise, crystal, allreduce")
	autotune := flag.Bool("autotune", false, "autotune the gather-scatter method at startup")
	dealias := flag.Bool("dealias", false, "enable the dealiasing fine-mesh round trip")
	mu := flag.Float64("mu", 0, "dynamic viscosity; > 0 enables the Navier-Stokes viscous flux path")
	filterCutoff := flag.Int("filter", 0, "modal spectral filter cutoff (shock-capture proxy; 0 disables)")
	variant := flag.String("variant", "optimized", "derivative kernel variant: optimized or basic")
	netName := flag.String("net", netmodel.QDR.Name, "network model: "+strings.Join(netmodel.Names(), ", "))
	showProfile := flag.Bool("profile", false, "print the execution (gprof-style) profile")
	showMPI := flag.Bool("mpiprofile", false, "print the MPI (mpiP-style) profiles")
	showDiag := flag.Bool("diag", false, "print flow diagnostics and the density modal spectrum")
	ckptDir := flag.String("ckpt", "", "write a per-rank checkpoint of the final state into this directory")
	traceOut := flag.String("trace", "", "write a Perfetto/Chrome trace-event JSON timeline of per-rank spans to this file")
	metricsOut := flag.String("metrics", "", "write a step-metrics JSONL stream (one record per timestep) to this file")
	debugAddr := flag.String("debug-addr", "", "serve live pprof and expvar on this address (e.g. :6060)")
	workers := flag.Int("workers", 0, "intra-rank worker-pool width for the spectral-element kernels (0 = GOMAXPROCS/ranks, min 1)")
	useLB := flag.Bool("loadbal", false, "enable dynamic load balancing (measured-cost SFC repartitioning with element migration)")
	overlap := flag.Bool("overlap", false, "overlap the gs_op face exchange with interior-element compute (split-phase exchange; bit-identical results)")
	faultsSpec := flag.String("faults", "", "fault scenario: a JSON file path, or inline JSON starting with '{' (see README)")
	faultSeed := flag.Int64("fault-seed", 0, "override the scenario's seed (0 keeps the spec's own)")
	hbEvery := flag.Int("heartbeat-every", 1, "steps between failure-detection heartbeat rounds under -faults")
	ckptEvery := flag.Int("ckpt-every", 0, "auto-checkpoint period in steps under -faults (written into the -ckpt directory; required for crash recovery)")
	lbThreshold := flag.Float64("imbalance-threshold", 1.2, "rank cost imbalance (max/mean) above which a rebalance is considered")
	lbEvery := flag.Int("rebalance-every", 10, "steps between load-balance measure/decide epochs")
	hotSpec := flag.String("hot", "", "comma-separated rank=factor pairs skewing per-element modeled cost (e.g. 3=4 makes rank 3's elements 4x)")
	transportName := flag.String("transport", "inproc", "communicator backend: inproc (all ranks in this process) or tcp (this process hosts one rank of a multi-process run; see scripts/mpirun_tcp.sh)")
	tcpRank := flag.Int("rank", -1, "world rank of this process (tcp transport)")
	tcpPeers := flag.String("peers", "", "comma-separated listen addresses, one per rank, identical across all processes (tcp transport)")
	tcpRdv := flag.String("rdv", "", "rendezvous: a file path (rank 0 publishes its ephemeral address there, other ranks poll it) or tcp://host:port/job for a cmtbroker (tcp transport; alternative to -peers)")
	cli.Parse()

	useTCP := *transportName == "tcp"
	switch {
	case *transportName != "inproc" && !useTCP:
		log.Fatalf("-transport: unknown %q (want inproc or tcp)", *transportName)
	case useTCP && (*tcpRank < 0 || *tcpRank >= *np):
		log.Fatalf("-transport=tcp needs -rank in [0,%d)", *np)
	case useTCP && *useLB:
		// The balancer aggregates per-rank state in shared slices; over
		// TCP each process only holds its own rank's share.
		log.Fatalf("-transport=tcp cannot be combined with -loadbal")
	}

	cfg := solver.DefaultConfig(*np, *n, *local)
	if *gridStr != "" {
		g, err := cli.ParseTriple(*gridStr)
		if err != nil {
			log.Fatalf("-grid: %v", err)
		}
		cfg.ProcGrid = g
		cfg.ElemGrid = [3]int{g[0] * *local, g[1] * *local, g[2] * *local}
	}
	if *elemsStr != "" {
		e, err := cli.ParseTriple(*elemsStr)
		if err != nil {
			log.Fatalf("-elems: %v", err)
		}
		cfg.ElemGrid = e
	}
	v, err := cli.ParseVariant(*variant)
	if err != nil {
		log.Fatalf("-variant: %v", err)
	}
	cfg.Variant = v
	m, err := gs.ParseMethod(*gsName)
	if err != nil {
		log.Fatalf("-gs: %v", err)
	}
	cfg.GSMethod = m
	cfg.AutoTune = *autotune
	cfg.Dealias = *dealias
	cfg.Mu = *mu
	cfg.FilterCutoff = *filterCutoff
	if *workers == 0 {
		*workers = pool.DefaultWorkers(*np)
	}
	cfg.Workers = *workers
	cfg.Overlap = *overlap
	if *hotSpec != "" {
		box, err := cfg.Mesh()
		if err != nil {
			log.Fatalf("-hot: %v", err)
		}
		cfg.HotElems = make(map[int64]float64)
		for _, pair := range strings.Split(*hotSpec, ",") {
			var rank int
			var factor float64
			if _, err := fmt.Sscanf(pair, "%d=%g", &rank, &factor); err != nil {
				log.Fatalf("-hot: bad pair %q (want rank=factor): %v", pair, err)
			}
			if rank < 0 || rank >= *np {
				log.Fatalf("-hot: rank %d out of range [0,%d)", rank, *np)
			}
			for _, gid := range box.Partition(rank).GIDs() {
				cfg.HotElems[gid] = factor
			}
		}
	}

	model, err := netmodel.ByName(*netName)
	if err != nil {
		log.Fatalf("-net: %v", err)
	}

	var spec *fault.Spec
	if *faultsSpec != "" {
		if *useLB {
			// Recovery re-homes elements itself; two subsystems rewriting
			// the ownership mid-run would fight over the partition.
			log.Fatalf("-faults cannot be combined with -loadbal")
		}
		spec, err = fault.Load(*faultsSpec)
		if err != nil {
			log.Fatalf("-faults: %v", err)
		}
		if *faultSeed != 0 {
			spec.Seed = *faultSeed
		}
		if len(spec.Crashes) > 0 && (*ckptDir == "" || *ckptEvery <= 0) {
			log.Fatalf("-faults: crash scenarios need -ckpt and -ckpt-every for rollback recovery")
		}
	}

	// Telemetry: the span tracer, metrics registry, and step collector
	// only observe — they never advance the virtual clock, so the modeled
	// run is bit-identical with them on or off.
	var (
		tel         *obs.Tracer
		reg         *obs.Registry
		coll        *obs.StepCollector
		metricsFile *os.File
		traceFile   *os.File
	)
	if *traceOut != "" || *metricsOut != "" || *debugAddr != "" || *useLB || spec != nil {
		reg = obs.NewRegistry()
		cfg.Metrics = reg
	}
	if *traceOut != "" {
		// Open the output before the run so a bad path fails fast
		// instead of after the simulation has already finished.
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			log.Fatalf("-trace: %v", err)
		}
		tel = obs.NewTracer()
		cfg.Obs = tel
	}
	if *metricsOut != "" {
		metricsFile, err = os.Create(*metricsOut)
		if err != nil {
			log.Fatalf("-metrics: %v", err)
		}
		coll = obs.NewStepCollector(metricsFile, *np, reg)
		cfg.Steps = coll
		if *showDiag {
			cfg.StepDiag = diag.StepScalars
		}
	}
	if *debugAddr != "" {
		srv, err := obs.Serve(*debugAddr, reg)
		if err != nil {
			log.Fatalf("-debug-addr: %v", err)
		}
		defer srv.Close()
		fmt.Printf("debug server: http://%s/debug/pprof/ and /debug/vars\n", srv.Addr())
	}
	opts := cfg.CommOptions(model)
	if tel != nil || reg != nil {
		opts.Tracer = obs.NewCommTracer(tel, reg)
	}
	var inj *fault.Injector
	if spec != nil {
		inj = fault.NewInjector(spec, *np, reg)
		opts.Faults = inj
	}

	// Telemetry must survive abnormal exits: the partial trace and step
	// stream of a run that panicked or was interrupted are exactly the
	// post-mortem artifacts wanted. The sink flushes once, whichever of
	// the signal handler, the failure path, or normal completion gets
	// there first.
	sink := &telemetrySink{tel: tel, traceFile: traceFile, coll: coll, metricsFile: metricsFile}
	if tel != nil || coll != nil {
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		go func() {
			s := <-sigc
			log.Printf("%v: flushing telemetry before exit", s)
			if err := sink.Flush(); err != nil {
				log.Printf("telemetry flush: %v", err)
			}
			os.Exit(130)
		}()
		defer func() {
			if p := recover(); p != nil {
				if err := sink.Flush(); err != nil {
					log.Printf("telemetry flush: %v", err)
				}
				panic(p)
			}
		}()
	}

	if !useTCP || *tcpRank == 0 {
		fmt.Printf("CMT-bone: %d ranks (%dx%dx%d), %d elements/rank, N=%d, %d steps, gs=%s net=%s\n",
			*np, cfg.ProcGrid[0], cfg.ProcGrid[1], cfg.ProcGrid[2],
			cfg.ElemGrid[0]*cfg.ElemGrid[1]*cfg.ElemGrid[2] / *np, cfg.N, *steps, *gsName, model.Name)
	}
	if useTCP {
		fmt.Printf("transport: tcp, this process is rank %d of %d\n", *tcpRank, *np)
	}
	if cfg.Workers > 1 {
		fmt.Printf("worker pool: %d workers per rank (wall time only; modeled time unchanged)\n", cfg.Workers)
	}
	if *useLB {
		fmt.Printf("load balancing: every %d steps, imbalance threshold %.2f\n", *lbEvery, *lbThreshold)
	}
	if *overlap {
		fmt.Printf("overlap: interior/boundary split with nonblocking gs exchange (results bit-identical)\n")
	}

	reports := make([]solver.Report, *np)
	recs := make([]*obs.RankTracer, *np)
	methods := make([]gs.Method, *np)
	balancers := make([]*loadbal.Balancer, *np)
	var flowDiag diag.Summary
	var spectrum diag.Spectrum
	recoveries := make([]int, *np)
	// runComm dispatches between the in-process reference backend and the
	// TCP transport. The rank program, the modeled clocks, and therefore
	// every physics diagnostic are identical either way; over TCP this
	// process simply hosts one rank and reports that rank's view.
	runComm := func(fn func(*comm.Rank) error) (*comm.Stats, error) {
		if !useTCP {
			return comm.Run(*np, opts, fn)
		}
		tcfg := tcptransport.Config{Rank: *tcpRank, Size: *np}
		if *tcpRdv != "" {
			if err := tcptransport.ParseRendezvous(*tcpRdv, &tcfg); err != nil {
				return nil, fmt.Errorf("-rdv: %w", err)
			}
		}
		if *tcpPeers != "" {
			tcfg.Peers = strings.Split(*tcpPeers, ",")
		}
		tr, err := tcptransport.New(tcfg)
		if err != nil {
			return nil, fmt.Errorf("tcp transport: %w", err)
		}
		return comm.RunDistributed(tr, opts, fn)
	}
	stats, err := runComm(func(r *comm.Rank) error {
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		s.SetInitial(solver.GaussianPulse(
			float64(cfg.ElemGrid[0])/2, float64(cfg.ElemGrid[1])/2, float64(cfg.ElemGrid[2])/2,
			0.1, float64(cfg.ElemGrid[0])/8+0.25))
		if spec != nil {
			rn, err := fault.NewRunner(s, fault.Config{
				Spec: spec, CkptDir: *ckptDir, CkptEvery: *ckptEvery,
				HeartbeatEvery: *hbEvery, Metrics: reg,
			})
			if err != nil {
				s.Close()
				return err
			}
			// The runner owns the current solver: after a recovery the
			// original is already closed and replaced.
			defer rn.Close()
			rep, err := rn.Run(*steps)
			if err != nil {
				return err
			}
			s = rn.Solver()
			reports[r.ID()] = rep
			recoveries[r.ID()] = rn.Recoveries
		} else {
			defer s.Close()
			var after func(int)
			if *useLB {
				b := loadbal.New(s, nil, reg, loadbal.Config{
					Threshold: *lbThreshold,
					Every:     *lbEvery,
				})
				balancers[r.ID()] = b
				after = b.AfterStep
			}
			reports[r.ID()] = s.RunWith(*steps, after)
		}
		recs[r.ID()] = s.Rec
		methods[r.ID()] = s.GS().Method()
		if *showDiag {
			d := diag.Compute(s)
			sp := diag.ModalSpectrum(s, solver.IRho)
			if r.ID() == 0 {
				flowDiag, spectrum = d, sp
			}
		}
		if *ckptDir != "" {
			if err := checkpoint.WriteFile(*ckptDir, "final", s, int64(*steps), 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		if ferr := sink.Flush(); ferr != nil {
			log.Printf("telemetry flush: %v", ferr)
		} else if tel != nil || coll != nil {
			log.Printf("telemetry flushed before exit")
		}
		log.Fatal(err)
	}

	// Ranks killed by a fault scenario leave zero-valued entries; report
	// from the first rank that finished.
	live := 0
	for i := range reports {
		if reports[i].Steps != 0 {
			live = i
			break
		}
	}
	rep := reports[live]
	fmt.Printf("done: steps=%d dt=%.3e mass=%.12f energy=%.9f lambda=%.6f\n",
		rep.Steps, rep.Dt, rep.Mass, rep.Energy, rep.WaveSpeed)
	fmt.Printf("gather-scatter method in use: %s\n", methods[live])
	fmt.Printf("wall time: %.3fs   modeled makespan: %.6fs   flops/rank: %.3g\n",
		stats.Wall, stats.MaxVirtualTime(), float64(rep.Ops.Flops()))
	if *overlap {
		fmt.Printf("overlap: %.6fs modeled exchange time hidden behind interior compute (all ranks)\n",
			stats.TotalOverlapHidden())
	}
	if inj != nil {
		fmt.Printf("faults: killed=%v recoveries=%d drops=%d corruptions=%d (crc-detected %d) delays=%d retransmits=%d\n",
			stats.Killed, recoveries[live], inj.Drops(), inj.Corrupts(),
			stats.CRCDetected, inj.Delays(), stats.Retransmits)
		if inj.Detected() < inj.Corrupts() && len(stats.Killed) == 0 {
			fmt.Printf("faults: WARNING: %d corruptions were never received — investigate\n",
				inj.Corrupts()-inj.Detected())
		}
	}
	if *useLB {
		b := balancers[0]
		moved, bytes := 0, int64(0)
		for _, rb := range balancers {
			moved += rb.MovedElems
			bytes += rb.MovedBytes
		}
		fmt.Printf("load balancing: %d epochs, %d rebalances, %d skips; %d elements migrated (%.1f KiB); imbalance %.2f -> %.2f\n",
			b.Epochs, b.Rebalances, b.Skips, moved, float64(bytes)/1024,
			reg.Gauge("loadbal_imbalance_before").Value(), reg.Gauge("loadbal_imbalance_after").Value())
	}
	if *ckptDir != "" {
		fmt.Printf("checkpoint written to %s\n", checkpoint.FilePath(*ckptDir, "final", 0))
	}
	if err := sink.Flush(); err != nil {
		log.Fatal(err)
	}
	if tel != nil {
		fmt.Printf("trace written to %s (%d spans, %d flows; load in ui.perfetto.dev)\n",
			*traceOut, len(tel.Spans()), len(tel.Flows()))
		if ds, df := tel.Dropped(); ds+df > 0 {
			fmt.Printf("trace: capacity reached, dropped %d spans and %d flows\n", ds, df)
		}
	}
	if coll != nil {
		fmt.Printf("step metrics written to %s (%d records)\n", *metricsOut, sink.records)
		f, err := os.Open(*metricsOut)
		if err != nil {
			log.Fatalf("-metrics: %v", err)
		}
		recs, err := obs.ReadSteps(f)
		f.Close()
		if err != nil {
			log.Fatalf("-metrics: %v", err)
		}
		fmt.Println()
		fmt.Print(report.TelemetrySummary(recs))
	}

	if *showDiag {
		fmt.Printf("diagnostics: %s\n", flowDiag)
		fmt.Printf("density modal spectrum (decay ratio %.2e):\n%s", spectrum.DecayRatio(), spectrum.Format())
	}
	if *showProfile {
		fmt.Println()
		fmt.Print(report.Fig4ExecutionProfile(obs.Merge(recs...), stats))
	}
	if *showMPI {
		fmt.Println()
		fmt.Print(report.Fig8MPIFractions(stats.RankMPIFractions(), true))
		fmt.Println()
		fmt.Print(report.Fig9TopMPICalls(stats.AggregateSites(), 20, stats.TotalAppWall()))
		fmt.Println()
		fmt.Print(report.Fig10MessageSizes(stats.AggregateSites(), 12))
	}
	os.Exit(0)
}

// telemetrySink owns the run's trace and step-metrics outputs and
// flushes them exactly once, from whichever exit path runs first —
// normal completion, the fatal-error path, a panic unwinding through
// main, or the SIGINT/SIGTERM handler. Every field is optional.
type telemetrySink struct {
	tel         *obs.Tracer
	traceFile   *os.File
	coll        *obs.StepCollector
	metricsFile *os.File

	once    sync.Once
	records int
	err     error
}

// Flush writes the Perfetto trace and the buffered step records and
// closes both files, keeping the first error. Safe to call from any
// goroutine, any number of times.
func (ts *telemetrySink) Flush() error {
	ts.once.Do(func() {
		keep := func(err error, what string) {
			if err != nil && ts.err == nil {
				ts.err = fmt.Errorf("%s: %w", what, err)
			}
		}
		if ts.tel != nil {
			keep(ts.tel.WritePerfetto(ts.traceFile), "-trace")
			keep(ts.traceFile.Close(), "-trace")
		}
		if ts.coll != nil {
			n, err := ts.coll.Flush()
			ts.records = n
			keep(err, "-metrics")
			keep(ts.metricsFile.Close(), "-metrics")
		}
	})
	return ts.err
}
