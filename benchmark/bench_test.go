package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a TCP round re-executes it as a worker.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		main()
		return
	}
	os.Exit(m.Run())
}

// shrink makes every workload's round the short one the goldens also
// hold, cuts the set-up repetitions and the triad arrays, and points
// all output at a temporary directory.
func shrink(t *testing.T) {
	t.Helper()
	saved := append([]workload(nil), workloads...)
	savedReps, savedSecs, savedTriad, savedOut := setupReps, setupSeconds, maxTriadBytes, outDir
	t.Cleanup(func() {
		copy(workloads, saved)
		setupReps, setupSeconds, maxTriadBytes, outDir = savedReps, savedSecs, savedTriad, savedOut
	})
	for i := range workloads {
		short := shortRound(workloads[i], defaultSeed)
		workloads[i].Warmup, workloads[i].Steps = short.Warmup, short.Steps
	}
	setupReps, setupSeconds, maxTriadBytes, outDir = 2, 0, 1<<20, t.TempDir()
}

// benchmarkJSON reads the metric names the contract file promises.
func benchmarkJSON(t *testing.T) (workloadNames []string, endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, w := range spec.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return workloadNames, endToEnd, perLayer
}

// Every workload of BENCHMARK.json builds, passes its golden check at
// the default seed, and emits exactly the promised metrics with their
// units, untraced and traced.
func TestWorkloadsEmitPromisedMetrics(t *testing.T) {
	shrink(t)
	names, endToEnd, perLayer := benchmarkJSON(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(names), len(workloads))
	}
	for _, name := range names {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			traced bool
			want   map[string]string
		}{{false, endToEnd}, {true, perLayer}} {
			rep, err := measure(context.Background(), w, defaultSeed, 0, tc.traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, tc.traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: attempted=%d failed=%d: %v", name, tc.traced, rep.Attempted, rep.Failed, rep.Problems)
			}
			if len(rep.Metrics) != len(tc.want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json promises %d", name, tc.traced, len(rep.Metrics), len(tc.want))
			}
			for metricName, unit := range tc.want {
				m, ok := rep.Metrics[metricName]
				if !ok || m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %q", name, tc.traced, metricName, m, ok, unit)
				}
			}
			if !tc.traced {
				continue
			}
			// The span file of the traced run is well-formed.
			b, err := os.ReadFile(filepath.Join(outDir, "trace-"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var file struct{ Spans []span }
			if err := json.Unmarshal(b, &file); err != nil {
				t.Fatal(err)
			}
			if len(file.Spans) == 0 {
				t.Errorf("%s: empty span file", name)
			}
			if err := checkSpans(file.Spans); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

// A golden recorded at the default seed must not be what lets another
// seed pass, and a wrong golden must fail the round with all its steps.
func TestCheckerSeedsAndGoldenMismatch(t *testing.T) {
	shrink(t)
	ctx := context.Background()
	w := workloads[2] // comm.n5
	for _, seed := range []int64{defaultSeed, 7} {
		chk, err := newChecker(w, seed)
		if err != nil {
			t.Fatal(err)
		}
		spec := shortRound(w, seed)
		out, err := runRound(ctx, spec)
		if !chk.round(ctx, spec, out, err) {
			t.Fatalf("seed %d: %v", seed, chk.problems)
		}
	}
	chk, err := newChecker(w, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	spec := shortRound(w, defaultSeed)
	key := strconv.Itoa(spec.Warmup + spec.Steps)
	g := chk.golden.Rounds[key]
	g.Makespan = math.Nextafter(g.Makespan, 1)
	chk.golden.Rounds = map[string]final{key: g}
	out, err := runRound(ctx, spec)
	if chk.round(ctx, spec, out, err) || chk.failed != spec.Warmup+spec.Steps {
		t.Fatalf("a one-ulp golden mismatch passed: failed=%d problems=%v", chk.failed, chk.problems)
	}
}

// tcp.n5 is comm.n5 on another transport: same bits.
func TestTCPEqualsInProcess(t *testing.T) {
	shrink(t)
	ctx := context.Background()
	spec := shortRound(workloads[3], 5)
	tcp, err := runRound(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.TCP = false
	inproc, err := runRound(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !tcp.Ranks[0].Final.equal(inproc.Ranks[0].Final) {
		t.Fatalf("tcp %+v != in-process %+v", tcp.Ranks[0].Final, inproc.Ranks[0].Final)
	}
	if tcp.ChildRSS == 0 {
		t.Error("worker processes reported no resident set")
	}
}

// workerPIDs lists live children of this process that are benchmark
// workers.
func workerPIDs(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Skip("no /proc")
	}
	self := strconv.Itoa(os.Getpid())
	var pids []string
	for _, e := range entries {
		stat, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		// pid (comm) state ppid ...; comm may hold spaces, so cut after ')'.
		fields := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+1:]))
		cmdline, _ := os.ReadFile(filepath.Join("/proc", e.Name(), "cmdline"))
		if len(fields) > 1 && fields[1] == self && strings.Contains(string(cmdline), "-worker") {
			pids = append(pids, e.Name())
		}
	}
	return pids
}

// When the harness gives up mid-round the workers are killed and
// waited for, and the rendezvous directory goes with them.
func TestTCPWorkersReapedOnParentFailure(t *testing.T) {
	shrink(t)
	spec := shortRound(workloads[3], defaultSeed)
	spec.Steps = 1 << 30
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if _, err := runTCPRound(ctx, spec); err == nil {
		t.Fatal("an endless round returned without error")
	}
	if pids := workerPIDs(t); len(pids) > 0 {
		t.Errorf("orphan or unreaped workers: %v", pids)
	}
	left, err := filepath.Glob(filepath.Join(outDir, "rdv-*"))
	if err != nil || len(left) > 0 {
		t.Errorf("rendezvous left behind: %v %v", left, err)
	}
}

// Span bookkeeping: parents enclose children, and self times add up to
// the time the roots cover.
func TestSpanSelfTimes(t *testing.T) {
	rc := newRecorder(0, 8)
	rc.begin("step")
	rc.begin("dt")
	time.Sleep(time.Millisecond)
	rc.end()
	rc.begin("rk3")
	time.Sleep(time.Millisecond)
	rc.end()
	rc.end()
	other := newRecorder(1, 8)
	other.begin("step")
	other.begin("dt")
	other.end()
	other.end()
	spans := mergeSpans(rc.spans, other.spans)
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
	if spans[4].Parent != 3 || spans[4].Rank != 1 {
		t.Fatalf("merged parent not rebased: %+v", spans[4])
	}
	total, self := spanTotals(spans)
	sumSelf := 0.0
	for _, s := range self {
		sumSelf += s
	}
	if math.Abs(sumSelf-total["step"]) > 1e-9 {
		t.Errorf("self times %.9f do not add up to the roots' %.9f", sumSelf, total["step"])
	}
	if self["step"] < 0 || self["step"] > total["step"]-total["dt"]-total["rk3"]+1e-9 {
		t.Errorf("step self %.9f vs total %.9f dt %.9f rk3 %.9f", self["step"], total["step"], total["dt"], total["rk3"])
	}
	bad := append([]span(nil), spans...)
	bad[1].End = bad[0].End + 1
	if checkSpans(bad) == nil {
		t.Error("a child outliving its parent passed the check")
	}
}

// The quartile rule is the one the acceptance spread is computed with.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v) // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("got q1=%v median=%v q3=%v", q1, median(v), q3)
	}
	if tl := highTail(make([]float64, 1000)); tl.P != 99 {
		t.Errorf("1000 samples leave ten beyond p99, got p%v", tl.P)
	}
}
