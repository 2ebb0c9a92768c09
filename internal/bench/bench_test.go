package bench

import (
	"math"
	"strings"
	"testing"

	"repro/internal/report"
)

// runStudies runs the traced loadbal study twice (identical config) and
// once with an injected hot-rank slowdown, shared across the tests
// below to keep the suite fast.
var studyCache struct {
	a, b, hot *LoadbalResult
}

func studies(t *testing.T) (*LoadbalResult, *LoadbalResult, *LoadbalResult) {
	t.Helper()
	if studyCache.a == nil {
		var err error
		if studyCache.a, err = LoadbalStudy(LoadbalOptions{Trace: true}); err != nil {
			t.Fatal(err)
		}
		if studyCache.b, err = LoadbalStudy(LoadbalOptions{Trace: true}); err != nil {
			t.Fatal(err)
		}
		if studyCache.hot, err = LoadbalStudy(LoadbalOptions{Trace: true, HotFactor: 16}); err != nil {
			t.Fatal(err)
		}
	}
	return studyCache.a, studyCache.b, studyCache.hot
}

func trajOf(res []report.BenchResult) *report.Trajectory {
	return &report.Trajectory{SchemaVersion: report.SchemaVersion, Results: res}
}

// Modeled makespans must be bit-identical across runs — the property
// that lets benchdiff gate them tightly.
func TestLoadbalStudyDeterministic(t *testing.T) {
	a, b, _ := studies(t)
	for i := range a.Scenarios {
		if a.Scenarios[i].Makespan != b.Scenarios[i].Makespan {
			t.Errorf("%s: makespan %v vs %v, want bit-identical",
				a.Scenarios[i].Scenario, a.Scenarios[i].Makespan, b.Scenarios[i].Makespan)
		}
		if a.Scenarios[i].MPIFrac != b.Scenarios[i].MPIFrac {
			t.Errorf("%s: mpi_frac differs across identical runs", a.Scenarios[i].Scenario)
		}
	}
}

// The acceptance criterion: critpath attribution sums to the modeled
// makespan within 1e-9 on a traced scalebench(-style) run.
func TestCritpathAttributionSumsToMakespan(t *testing.T) {
	a, _, _ := studies(t)
	for _, s := range a.Scenarios {
		if s.Critpath == nil {
			t.Fatalf("%s: no critpath summary on a traced run", s.Scenario)
		}
		var sum float64
		for _, c := range s.Critpath.Cells {
			sum += c.Total()
		}
		if math.Abs(sum-s.Critpath.Makespan) > 1e-9 {
			t.Errorf("%s: attribution sums to %.12f, makespan %.12f (|err| %g > 1e-9)",
				s.Scenario, sum, s.Critpath.Makespan, math.Abs(sum-s.Critpath.Makespan))
		}
		if s.Critpath.Makespan <= 0 || s.Critpath.Makespan > s.Makespan {
			t.Errorf("%s: critpath makespan %v vs run makespan %v",
				s.Scenario, s.Critpath.Makespan, s.Makespan)
		}
	}
}

// Identical fresh runs must diff clean: zero regressions, modeled
// metrics bit-stable.
func TestCompareIdenticalRunsClean(t *testing.T) {
	a, b, _ := studies(t)
	cmp := Compare(trajOf(a.Results()), trajOf(b.Results()), CompareOptions{})
	if len(cmp.Regressions) != 0 {
		t.Fatalf("identical runs regressed: %+v", cmp.Regressions)
	}
	for _, d := range cmp.Deltas {
		if d.Deterministic && d.Rel != 0 {
			t.Errorf("deterministic metric %s/%s drifted: %v -> %v", d.Key, d.Metric, d.Base, d.Cur)
		}
	}
}

// An injected hot-rank slowdown must be caught as a regression with a
// critical-path blame line naming the responsible phase.
func TestCompareCatchesInjectedSkew(t *testing.T) {
	a, _, hot := studies(t)
	cmp := Compare(trajOf(a.Results()), trajOf(hot.Results()), CompareOptions{})
	if len(cmp.Regressions) == 0 {
		t.Fatal("4x->16x hot-rank skew not caught as a regression")
	}
	var skewRegressed bool
	for _, d := range cmp.Regressions {
		if d.Key == "scalebench-loadbal/skewed" && d.Metric == "makespan_s" {
			skewRegressed = true
		}
	}
	if !skewRegressed {
		t.Fatalf("skewed makespan not among regressions: %+v", cmp.Regressions)
	}
	lines := cmp.Blame["scalebench-loadbal/skewed"]
	if len(lines) == 0 {
		t.Fatal("no critpath blame for the skew regression")
	}
	phases := []string{"rhs", "gs-exchange", "rk", "reduce", "rebalance", "recovery", "other"}
	var named bool
	for _, l := range lines {
		for _, p := range phases {
			if strings.Contains(l.Text, p) {
				named = true
			}
		}
	}
	if !named {
		t.Fatalf("blame lines name no phase: %+v", lines)
	}
	out := cmp.Format(false)
	if !strings.Contains(out, "blame:") {
		t.Fatalf("Format missing blame lines:\n%s", out)
	}
}

// A baseline row or metric the fresh run no longer produces (a renamed
// scenario) must fail the gate and be named in the summary line, not
// silently drop out of it.
func TestCompareMissingRowFails(t *testing.T) {
	a, b, _ := studies(t)
	cur := trajOf(b.Results()[1:]) // drops scalebench-loadbal/balanced
	cur.Results[0].Metrics = cur.Results[0].Metrics[1:]
	cmp := Compare(trajOf(a.Results()), cur, CompareOptions{})
	want := []string{"scalebench-loadbal/balanced", "scalebench-loadbal/skewed makespan_s"}
	if strings.Join(cmp.Missing, "|") != strings.Join(want, "|") {
		t.Fatalf("missing = %q, want %q", cmp.Missing, want)
	}
	if len(cmp.Regressions) != 0 {
		t.Fatalf("regressions = %+v", cmp.Regressions)
	}
	out := cmp.Format(false)
	if !strings.Contains(out, "2 missing from fresh run: "+strings.Join(want, ", ")+"\n") {
		t.Fatalf("summary line does not name the missing rows:\n%s", out)
	}
}

// The allocs guard's absolute bar: small drifts near zero never gate,
// crossing one alloc/op does.
func TestCompareAllocsAbsoluteBar(t *testing.T) {
	mk := func(v float64) *report.Trajectory {
		return trajOf(AllocsResults([]AllocsRecord{{Method: "pairwise", PerOp: v}}))
	}
	if cmp := Compare(mk(0.02), mk(0.9), CompareOptions{}); len(cmp.Regressions) != 0 {
		t.Fatalf("sub-1/op drift gated: %+v", cmp.Regressions)
	}
	if cmp := Compare(mk(0.02), mk(40), CompareOptions{}); len(cmp.Regressions) != 1 {
		t.Fatal("leaky exchange (40 allocs/op) not caught")
	}
}

func TestWorkerSweepSmall(t *testing.T) {
	recs := WorkerSweep(SweepOptions{N: 5, Nel: 4, Steps: 2, Workers: []int{1}})
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3 directions", len(recs))
	}
	for _, r := range recs {
		if r.Wall <= 0 || r.Gflops <= 0 || r.Speedup != 1 {
			t.Fatalf("record = %+v", r)
		}
	}
}
