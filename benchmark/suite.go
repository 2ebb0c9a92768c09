package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the self-check reads: each
// end-to-end metric's regression bound.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// suiteStats is one metric of one workload over a suite's rounds.
type suiteStats struct {
	Median, Q1, Q3 float64
	Unit           string
}

// runSuite runs every workload round-robin — workload A, B, C, D, then
// again — so drift of the host over the minutes a suite takes lands on
// all workloads alike rather than on whichever ran last. Each run is a
// child process, which keeps one workload's memory peak out of the
// next one's. With selfcheck the suite runs twice and the two sets of
// medians must agree within the bounds fixed in BENCHMARK.json.
func runSuite(ctx context.Context, seed int64, seconds float64, traced bool, rounds int, selfcheck bool) error {
	first, err := suiteOnce(ctx, seed, seconds, traced, rounds)
	if err != nil || !selfcheck {
		return err
	}
	second, err := suiteOnce(ctx, seed, seconds, traced, rounds)
	if err != nil {
		return err
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("selfcheck: BENCHMARK.json: %w", err)
	}
	fmt.Println("selfcheck: two sets of runs of the same code")
	var worst []string
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			a, b := first[w.Name][m.Name].Median, second[w.Name][m.Name].Median
			diff := math.Abs(b-a) / a
			verdict := "ok"
			if !(diff <= m.Bound) {
				verdict = "DIFFERS"
				worst = append(worst, w.Name+"/"+m.Name)
			}
			fmt.Printf("  %-12s %-12s %12.6g %12.6g  %+6.2f%% (bound %.0f%%) %s\n",
				w.Name, m.Name, a, b, 100*(b-a)/a, 100*m.Bound, verdict)
		}
	}
	if len(worst) > 0 {
		return fmt.Errorf("selfcheck: same code, different numbers: %s", strings.Join(worst, ", "))
	}
	fmt.Println("selfcheck: passed")
	return nil
}

func suiteOnce(ctx context.Context, seed int64, seconds float64, traced bool, rounds int) (map[string]map[string]suiteStats, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for round := 0; round < rounds; round++ {
		for _, w := range workloads {
			cmd := exec.CommandContext(ctx, self, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace, "-out", outDir)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return nil, fmt.Errorf("suite: %s round %d: no result line (%v): %w", w.Name, round+1, runErr, err)
			}
			if runErr != nil || !res.Correct || res.Failed > 0 {
				os.Stdout.Write(stdout.Bytes())
				return nil, fmt.Errorf("suite: %s round %d: %d of %d steps failed (%v)",
					w.Name, round+1, res.Failed, res.Attempted, runErr)
			}
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w.Name][name] = append(values[w.Name][name], m.Value)
				units[name] = m.Unit
			}
			fmt.Printf("round %d/%d %-12s steps_attempted=%d steps_failed=0\n", round+1, rounds, w.Name, res.Attempted)
		}
	}

	stats := map[string]map[string]suiteStats{}
	fmt.Printf("%-12s %-34s %14s %14s %14s  %s\n", "workload", "metric", "median", "q1", "q3", "unit")
	for _, w := range workloads {
		stats[w.Name] = map[string]suiteStats{}
		names := make([]string, 0, len(values[w.Name]))
		for name := range values[w.Name] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := values[w.Name][name]
			q1, q3 := quartiles(v)
			st := suiteStats{Median: median(v), Q1: q1, Q3: q3, Unit: units[name]}
			stats[w.Name][name] = st
			fmt.Printf("%-12s %-34s %14.6g %14.6g %14.6g  %s\n", w.Name, name, st.Median, st.Q1, st.Q3, st.Unit)
		}
	}
	return stats, nil
}
