// Command benchdiff is the modeled-time regression gate. It runs one
// fixed suite list in-process — the loadbal, overlap and hierarchical-
// collectives studies (virtual clocks, bit-reproducible on any host)
// and the gather-scatter allocation guard — and either records it as
// the one committed baseline (-record, `make bench-all`) or compares it
// against that baseline.
//
// Deterministic metrics gate at -threshold, allocs/op at its absolute
// floor of one; a baseline row the fresh run no longer produces fails
// the gate too. When a regression is found on a scenario whose runs
// carry critical-path summaries, benchdiff prints a blame diff — which
// rank/phase bucket of the critical path grew.
//
//	benchdiff -record BENCH_trajectory.json
//	benchdiff BENCH_trajectory.json
//	benchdiff -hot 16 BENCH_trajectory.json   # inject a skew, watch it fail
//
// Exit status: 0 clean; 1 on a regression, a missing row or an error;
// 2 on a usage error.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/bench"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")

	record := flag.String("record", "", "run the suites and write a fresh baseline to this file instead of comparing")
	threshold := flag.Float64("threshold", 0.02, "relative worsening tolerated on deterministic (modeled) metrics")
	topBlame := flag.Int("top", 3, "critical-path blame lines per regression")
	critOut := flag.String("critpath", "", "write the fresh run's full critical-path reports to this file")
	hot := flag.Float64("hot", 0, "inject a hot-rank compute skew of this factor into the fresh loadbal study (regression demo)")
	verbose := flag.Bool("v", false, "list bit-identical metrics and unmatched scenarios too")
	// The baseline is a positional argument, so plain flag.Parse (not
	// cli.Parse, which rejects positionals).
	flag.Parse()

	wantArgs := 1
	if *record != "" {
		wantArgs = 0
	}
	if flag.NArg() != wantArgs {
		log.Print("usage: benchdiff [flags] BENCH_trajectory.json | benchdiff -record FILE")
		flag.PrintDefaults()
		os.Exit(2)
	}
	var base *report.Trajectory
	if *record == "" {
		var err error
		if base, err = report.ReadTrajectory(flag.Arg(0)); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("baseline %s: schema v%d, %d results\n", flag.Arg(0), base.SchemaVersion, len(base.Results))
	}

	fresh, crit, err := freshRun(*hot)
	if err != nil {
		log.Fatal(err)
	}
	writeCrit(*critOut, crit)

	if *record != "" {
		if err := fresh.WriteFile(*record); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("recorded %d results to %s\n", len(fresh.Results), *record)
		return
	}
	cmp := bench.Compare(base, fresh, bench.CompareOptions{Threshold: *threshold, TopBlame: *topBlame})
	fmt.Println()
	fmt.Print(cmp.Format(*verbose))
	if len(cmp.Regressions) > 0 || len(cmp.Missing) > 0 {
		os.Exit(1)
	}
}

// freshRun performs the fixed suite list in-process and returns it as a
// trajectory plus the critical-path reports of the traced runs.
func freshRun(hot float64) (*report.Trajectory, []string, error) {
	fmt.Println("running loadbal study (traced)...")
	lb, err := bench.LoadbalStudy(bench.LoadbalOptions{Trace: true, HotFactor: hot})
	if err != nil {
		return nil, nil, err
	}
	fmt.Println("running overlap study (traced)...")
	ov, err := bench.OverlapStudy(bench.OverlapOptions{Trace: true})
	if err != nil {
		return nil, nil, err
	}
	fmt.Println("running hierarchical-collectives study...")
	hier, err := bench.RunHierStudy(bench.HierOptions{})
	if err != nil {
		return nil, nil, err
	}
	fmt.Println("running steady-state allocation guard...")
	allocs, err := bench.AllocsGuard()
	if err != nil {
		return nil, nil, err
	}

	traj := report.New(lb.Results())
	traj.Results = append(traj.Results, ov.Results()...)
	traj.Results = append(traj.Results, hier.Results()...)
	traj.Results = append(traj.Results, bench.AllocsResults(allocs)...)
	var crit []string
	for _, r := range traj.Results {
		if r.Critpath != nil {
			crit = append(crit, fmt.Sprintf("== %s ==\n%s", r.Key(), r.Critpath.Format(5)))
		}
	}
	return traj, crit, nil
}

// writeCrit writes the collected critical-path reports, if requested.
func writeCrit(path string, crit []string) {
	if path == "" || len(crit) == 0 {
		return
	}
	var buf []byte
	for _, c := range crit {
		buf = append(buf, c...)
		buf = append(buf, '\n')
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote critical-path report to %s\n", path)
}
