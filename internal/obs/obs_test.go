package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/netmodel"
)

// TestConcurrentEmission hammers one tracer and one registry from many
// goroutines — the production shape: every rank goroutine records spans,
// flows, counters, and histogram observations into shared state. Run
// under -race this is the data-race proof for the telemetry layer.
func TestConcurrentEmission(t *testing.T) {
	tr := NewTracer()
	reg := NewRegistry()
	const ranks, iters = 8, 200
	var wg sync.WaitGroup
	for rank := 0; rank < ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			clock := netmodel.NewClock(netmodel.QDR)
			rt := tr.Rank(rank, clock)
			c := reg.Counter("test.msgs")
			h := reg.Histogram("test.sizes", MsgSizeBuckets)
			for i := 0; i < iters; i++ {
				kern := rt.Region("kernel", CatKernel)
				clock.Advance(1e-6)
				kern.End()
				tr.AddFlow(Flow{Src: rank, Dst: (rank + 1) % ranks, Bytes: 64})
				c.Add(1)
				h.Observe(float64(i))
				reg.Gauge("test.last").Set(float64(i))
				if i%50 == 0 {
					_ = reg.Snapshot()
					_ = tr.Spans()
				}
			}
		}(rank)
	}
	wg.Wait()
	if got := len(tr.Spans()); got != ranks*iters {
		t.Fatalf("spans = %d, want %d", got, ranks*iters)
	}
	if got := len(tr.Flows()); got != ranks*iters {
		t.Fatalf("flows = %d, want %d", got, ranks*iters)
	}
	if got := reg.Counter("test.msgs").Value(); got != ranks*iters {
		t.Fatalf("counter = %d, want %d", got, ranks*iters)
	}
	if got := reg.Histogram("test.sizes", nil).Count(); got != ranks*iters {
		t.Fatalf("histogram count = %d, want %d", got, ranks*iters)
	}
}

// TestTracerCap checks the bounded-retention contract: past Cap,
// records are counted as dropped, not stored and not panicking.
func TestTracerCap(t *testing.T) {
	tr := NewTracer()
	tr.Cap = 10
	clock := netmodel.NewClock(netmodel.QDR)
	rt := tr.Rank(0, clock)
	for i := 0; i < 25; i++ {
		rt.Region("s", CatKernel).End()
		tr.AddFlow(Flow{})
	}
	if got := len(tr.Spans()); got != 10 {
		t.Fatalf("retained %d spans, want 10", got)
	}
	ds, df := tr.Dropped()
	if ds != 15 || df != 15 {
		t.Fatalf("dropped = (%d, %d), want (15, 15)", ds, df)
	}
}

// TestNilTelemetryIsNoOp checks that the whole recording surface is
// nil-safe — the telemetry-off path of every call site.
func TestNilTelemetryIsNoOp(t *testing.T) {
	var tr *Tracer
	var rt *RankTracer // a gs handle nobody gave a recorder
	rt.Span("anything", CatGS).End()
	rt.Region("anything", CatStep).End()
	tr.AddFlow(Flow{})
	var reg *Registry
	reg.Counter("c").Add(1)
	reg.Gauge("g").Set(1)
	reg.Histogram("h", []float64{1}).Observe(0.5)
	if reg.Snapshot() != nil || reg.Counters() != nil {
		t.Fatal("nil registry must snapshot to nil")
	}
	var coll *StepCollector
	coll.Report(0, 0, 0, "", RankStep{}, nil)
	if n, err := coll.Flush(); n != 0 || err != nil {
		t.Fatalf("nil collector Flush = (%d, %v)", n, err)
	}
}

// TestPerfettoGolden validates the exported trace against the
// Chrome/Perfetto trace-event contract: valid JSON, a traceEvents
// array, every event carrying ph/ts/pid, dual clock-domain tracks, and
// paired s/f flow events sharing an id.
func TestPerfettoGolden(t *testing.T) {
	tr := NewTracer()
	clock0 := netmodel.NewClock(netmodel.QDR)
	clock1 := netmodel.NewClock(netmodel.QDR)
	rt0, rt1 := tr.Rank(0, clock0), tr.Rank(1, clock1)
	reg := rt0.Region("timestep", CatStep)
	clock0.Advance(2e-3)
	reg.End()
	reg = rt1.Region("ax_deriv_dudr", CatKernel)
	clock1.Advance(1e-3)
	reg.End()
	tr.AddFlow(Flow{Src: 0, Dst: 1, Tag: 7, Bytes: 512, SendVT: 1e-4, ArriveVT: 3e-4, Site: "gs_op"})

	var buf bytes.Buffer
	if err := tr.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("trace is not valid JSON:\n%s", buf.String())
	}
	var f struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
	phases := map[string]int{}
	pids := map[float64]bool{}
	var flowID any
	for _, e := range f.TraceEvents {
		for _, key := range []string{"ph", "ts", "pid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("event %v missing required key %q", e, key)
			}
		}
		ph := e["ph"].(string)
		phases[ph]++
		pids[e["pid"].(float64)] = true
		switch ph {
		case "s":
			flowID = e["id"]
		case "f":
			if e["id"] != flowID {
				t.Fatalf("flow start/finish ids differ: %v vs %v", flowID, e["id"])
			}
			if e["bp"] != "e" {
				t.Fatalf("flow finish must bind to enclosing slice, bp = %v", e["bp"])
			}
		}
	}
	// 2 spans x 2 clock domains = 4 complete events; 1 flow = s + f pair.
	if phases["X"] != 4 || phases["s"] != 1 || phases["f"] != 1 {
		t.Fatalf("phase counts = %v, want X:4 s:1 f:1", phases)
	}
	if !pids[PidVirtual] || !pids[PidWall] {
		t.Fatalf("missing a clock-domain pid: %v", pids)
	}
	if phases["M"] == 0 {
		t.Fatal("no metadata events (process/thread names)")
	}
}

// TestStepStreamRoundTrip drives the collector like a 2-rank run —
// ranks reporting steps slightly out of order — and checks the JSONL
// output parses back into the same in-order records.
func TestStepStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	reg := NewRegistry()
	reg.Counter("comm.msgs").Add(5)
	coll := NewStepCollector(&buf, 2, reg)
	// Rank 1 runs ahead: reports step 0 then step 1 before rank 0 reports
	// step 0. Nothing may be written until step 0 is complete.
	coll.Report(0, 0.1, 0.1, "pairwise", RankStep{Rank: 1, VT: 1, Compute: 0.8, Comm: 0.2, Bytes: 100}, nil)
	coll.Report(1, 0.2, 0.1, "pairwise", RankStep{Rank: 1, VT: 2}, nil)
	if buf.Len() != 0 {
		t.Fatal("collector wrote before a step was complete")
	}
	coll.Report(0, 0.1, 0.1, "pairwise", RankStep{Rank: 0, VT: 1.1, Wait: 0.05}, map[string]float64{"mass": 32.5})
	coll.Report(1, 0.2, 0.1, "pairwise", RankStep{Rank: 0, VT: 2.1}, nil)
	n, err := coll.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("flushed %d records, want 2", n)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("invalid JSONL line: %s", line)
		}
	}
	recs, err := ReadSteps(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Step != 0 || recs[1].Step != 1 {
		t.Fatalf("records = %+v", recs)
	}
	if len(recs[0].Ranks) != 2 || recs[0].Ranks[0].Rank != 0 || recs[0].Ranks[1].Rank != 1 {
		t.Fatalf("step 0 ranks not sorted: %+v", recs[0].Ranks)
	}
	if recs[0].Diag["mass"] != 32.5 {
		t.Fatalf("diag lost: %+v", recs[0].Diag)
	}
	if recs[0].Counters["comm.msgs"] != 5 {
		t.Fatalf("counters lost: %+v", recs[0].Counters)
	}
}

// TestStepStreamIncomplete checks that a run that ends with a rank
// missing from a step surfaces an error instead of silently dropping
// the partial record.
func TestStepStreamIncomplete(t *testing.T) {
	coll := NewStepCollector(io.Discard, 2, nil)
	coll.Report(0, 0, 0.1, "pairwise", RankStep{Rank: 0}, nil)
	if _, err := coll.Flush(); err == nil {
		t.Fatal("Flush must report the incomplete step")
	}
}

// TestStepStreamRollback models a fault recovery: 3 ranks report steps
// 0-1, rank 2 dies during step 2 (two survivors report it), and the
// collector is rolled back to the checkpoint step 1 with 2 live ranks.
// The replayed steps must seal at the reduced rank count, the partial
// pre-crash step 2 record must be discarded, and Flush must succeed
// with the replayed steps appearing after the originals.
func TestStepStreamRollback(t *testing.T) {
	var buf bytes.Buffer
	coll := NewStepCollector(&buf, 3, nil)
	for step := 0; step < 2; step++ {
		for rank := 0; rank < 3; rank++ {
			coll.Report(step, float64(step), 0.1, "pairwise", RankStep{Rank: rank}, nil)
		}
	}
	// Step 2 is partial: rank 2 crashed before reporting.
	coll.Report(2, 2, 0.1, "pairwise", RankStep{Rank: 0}, nil)
	coll.Report(2, 2, 0.1, "pairwise", RankStep{Rank: 1}, nil)

	coll.Rollback(1, 2)
	// Survivors replay from the checkpoint step.
	for step := 1; step < 3; step++ {
		for rank := 0; rank < 2; rank++ {
			coll.Report(step, float64(step), 0.1, "pairwise", RankStep{Rank: rank}, nil)
		}
	}
	n, err := coll.Flush()
	if err != nil {
		t.Fatalf("Flush after rollback: %v", err)
	}
	if n != 4 {
		t.Fatalf("flushed %d records, want 4 (steps 0,1 then replayed 1,2)", n)
	}
	recs, err := ReadSteps(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	wantSteps := []int{0, 1, 1, 2}
	wantRanks := []int{3, 3, 2, 2}
	for i, rec := range recs {
		if rec.Step != wantSteps[i] || len(rec.Ranks) != wantRanks[i] {
			t.Fatalf("record %d = step %d with %d ranks, want step %d with %d ranks",
				i, rec.Step, len(rec.Ranks), wantSteps[i], wantRanks[i])
		}
	}
}

// TestRegistrySnapshotJSON checks the snapshot (histograms included)
// survives json.Marshal — the expvar and step-record serialization path.
// The +Inf overflow bound must not break encoding.
func TestRegistrySnapshotJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c").Add(3)
	reg.Gauge("g").Set(2.5)
	h := reg.Histogram("h", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)
	out, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"+Inf"`) {
		t.Fatalf("overflow bucket missing from %s", out)
	}
	var parsed map[string]any
	if err := json.Unmarshal(out, &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed["counters"].(map[string]any)["c"].(float64) != 3 {
		t.Fatalf("counter lost in %s", out)
	}
}

// TestDebugServer starts the live endpoint on a loopback port and
// fetches /debug/vars and a pprof page.
func TestDebugServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c").Add(7)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if path == "/debug/vars" && !strings.Contains(string(body), "cmtbone") {
			t.Fatalf("/debug/vars missing the cmtbone var:\n%s", body)
		}
	}
}
