// Command benchmark is the wall-clock benchmark of the CMT-bone
// reproduction: seconds per timestep, set-up time and peak memory of
// four workloads, each checked for correct output, plus per-layer
// probes taken from outside the program. See README.md.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line last
//	benchmark [-rounds R] [-trace 1]                          all workloads, round-robin
//	benchmark -selfcheck                                      the suite twice, compared within its bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

func main() {
	workloadName := flag.String("workload", "", "workload to run (default: the whole suite, round-robin)")
	seed := flag.Int64("seed", defaultSeed, "input seed: moves and scales the initial pulse")
	seconds := flag.Float64("seconds", 20, "seconds of measured rounds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from harness-side spans and probes")
	flag.StringVar(&outDir, "out", outDir, "directory for rendezvous, trace and report files")
	rounds := flag.Int("rounds", 3, "suite: runs of each workload, interleaved")
	selfcheck := flag.Bool("selfcheck", false, "run the suite twice and fail if any end-to-end metric differs by more than its bound")
	regolden := flag.Bool("update-golden", false, "re-record benchmark/golden at the default seed and exit")
	worker := flag.String("worker", "", "internal: run one rank of a TCP round described by this JSON spec")
	rank := flag.Int("rank", 0, "internal: world rank of this worker")
	rdv := flag.String("rdv", "", "internal: rendezvous file of this worker's round")
	flag.Parse()

	// The workloads are sized for two cores; more would only add
	// scheduler noise to a two-rank run.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *worker != "":
		err = workerMain(*worker, *rank, *rdv)
	case *regolden:
		err = updateGolden(ctx)
	case *workloadName != "":
		err = runOne(ctx, *workloadName, *seed, *seconds, *trace == 1)
	default:
		err = runSuite(ctx, *seed, *seconds, *trace == 1, *rounds, *selfcheck)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		stop()
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints the report,
// the result line last.
func runOne(ctx context.Context, name string, seed int64, seconds float64, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	rep, err := measure(ctx, w, seed, seconds, traced)
	if err != nil {
		return err
	}
	kind := "e2e"
	if traced {
		kind = "layers"
	}
	if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("report-%s-%s.json", w.Name, kind)), rep); err != nil {
		return err
	}
	printReport(w, rep)
	line, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("%s: %d of %d steps failed", w.Name, rep.Failed, rep.Attempted)
	}
	return nil
}

func printReport(w workload, rep *report) {
	fmt.Printf("workload %s seed %d: %d rounds of %d+%d steps, np=%d N=%d %d elements/rank\n",
		w.Name, rep.Seed, rep.Rounds, w.Warmup, w.Steps, np, w.N, w.Local*w.Local*w.Local)
	fmt.Printf("  final: dt=%.6e mass=%.12f energy=%.12f lambda=%.9f makespan=%.6fs\n",
		rep.Final.Dt, rep.Final.Mass, rep.Final.Energy, rep.Final.Lambda, rep.Final.Makespan)
	fmt.Printf("  steps_attempted=%d steps_failed=%d correct=%v\n", rep.Attempted, rep.Failed, rep.Correct)
	for _, p := range rep.Problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("  %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	if rep.StepSamples > 0 {
		fmt.Printf("  step samples: %d, median = %.6g s, p%g = %.6g s\n",
			rep.StepSamples, rep.StepMedian, rep.StepTail.P, rep.StepTail.Value)
	}
	if !rep.Traced {
		fmt.Printf("  ns_per_point_step = %.4g (step_s * 1e9 / %d points); set-up samples: %d\n",
			rep.NsPerPointStep, w.points(), rep.SetupSamples)
		return
	}
	if h := rep.Host; h != nil {
		fmt.Printf("  host: nproc=%d GOMAXPROCS=%d %s simd=%v  %.2f GFLOP/s scalar mul+add, triad %.2f GB/s (arrays %d MiB each, LLC %d MiB), loopback rtt %.1f us at %d B\n",
			h.NProc, h.GOMAXPROCS, h.GoVersion, h.SIMD, h.GFlops, h.TriadGBs,
			h.TriadArrayBytes>>20, h.LLCBytes>>20, h.LoopbackRTTus, h.LoopbackBytes)
	}
	for _, name := range []string{"solver.step", "solver.stabledt", "solver.rk3", "probes"} {
		fmt.Printf("  span %-16s total %10.4f s  self %10.4f s (summed over ranks)\n", name, rep.SpanS[name][0], rep.SpanS[name][1])
	}
	fmt.Printf("  %-18s %12s %6s %7s %12s %14s %8s %8s %9s\n",
		"probe", "unit_s", "calls", "share", "flops", "bytes(computed)", "flop/B", "GFLOP/s", "roofline")
	for _, r := range rep.Ledger {
		fmt.Printf("  %-18s %12.4g %6g %6.1f%% %12d %14d %8.3g %8.3g %9.3g\n",
			r.Probe, r.UnitS, r.CallsPerStep, 100*r.StepShare, r.Flops, r.Bytes, r.FlopsPerByte, r.GFlops, r.RooflineFrac)
	}
}
