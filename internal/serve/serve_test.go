package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/diag"
	"repro/internal/fault"
	"repro/internal/solver"
)

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, Status) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp, st
}

func TestSubmitBadSpecIs400WithReason(t *testing.T) {
	srv := New(Config{Slots: 1})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		body string
		want string // substring of the error reason
	}{
		{`{"priority":1}`, "tenant is required"},
		{`{"tenant":"BAD CAPS"}`, "not a valid id"},
		{`{"tenant":"a","priority":99}`, "priority"},
		{`{"tenant":"a","n":99}`, "n 99"},
		{`{"tenant":"a","steps":-4}`, "steps"},
		{`{"tenant":"a","gs":"telepathy"}`, "gs"},
		{`{"tenant":"a","local_elems":9,"ranks":16}`, "elements"},
		{`{"tenant":"a","ranks":2,"faults":{"crashes":[{"rank":2,"step":2}]}}`, "crash rank 2 outside [0,2)"},
		{`{"tenant":"a","unknown_knob":true}`, "unknown_knob"},
		{`not json`, "bad job spec"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e apiError
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", tc.body, resp.StatusCode)
			continue
		}
		if !strings.Contains(e.Error, tc.want) {
			t.Errorf("POST %s: reason %q does not mention %q", tc.body, e.Error, tc.want)
		}
	}
}

func TestQuotaExceededIs429(t *testing.T) {
	srv := New(Config{
		Slots:  1,
		Limits: Limits{MaxQueuedPerTenant: 2, MaxRunningPerTenant: 1},
	})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One long job occupies the slot; two more fill tenant a's queue.
	long := `{"tenant":"a","ranks":2,"local_elems":1,"steps":500}`
	if resp, _ := postJob(t, ts, long); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	for i := 0; i < 2; i++ {
		if resp, _ := postJob(t, ts, long); resp.StatusCode != http.StatusCreated {
			t.Fatalf("queue fill %d: %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(long))
	if err != nil {
		t.Fatal(err)
	}
	var e apiError
	_ = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429 (err %q)", resp.StatusCode, e.Error)
	}
	if !strings.Contains(e.Error, "quota") {
		t.Fatalf("429 reason %q does not mention the quota", e.Error)
	}
	// Another tenant is unaffected by a's quota.
	if resp, _ := postJob(t, ts, `{"tenant":"b","ranks":2,"local_elems":1,"steps":3}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("tenant b submit: %d", resp.StatusCode)
	}
}

// waitSteps polls until the job has completed at least n steps.
func waitSteps(t *testing.T, srv *Server, id int64, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j := srv.Job(id)
		if j == nil {
			t.Fatalf("job %d vanished", id)
		}
		j.mu.Lock()
		got := len(j.steps)
		j.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %d never reached %d steps", id, n)
}

func sameResult(a, b *Result) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Steps == b.Steps && eq(a.Dt, b.Dt) && eq(a.Mass, b.Mass) &&
		eq(a.Energy, b.Energy) && eq(a.WaveSpeed, b.WaveSpeed) &&
		eq(a.KineticEn, b.KineticEn) && eq(a.InternalEn, b.InternalEn) &&
		eq(a.MaxMach, b.MaxMach)
}

// TestPreemptionBitIdentical is the heart of the subsystem: a
// higher-priority submission preempts a running job mid-flight; the
// victim suspends through the in-memory checkpoint, migrates to a fresh
// comm.Run when rescheduled, and its final report and diagnostics are
// bit-for-bit those of an uninterrupted run of the same spec.
func TestPreemptionBitIdentical(t *testing.T) {
	spec := JobSpec{Tenant: "victim", Ranks: 2, LocalElems: 1, N: 5, Steps: 120}

	// Reference: the same spec, alone on its own server.
	ref := New(Config{Slots: 1})
	rj, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	refSt, err := ref.WaitJob(rj.ID)
	if err != nil {
		t.Fatal(err)
	}
	ref.Shutdown()
	if refSt.State != StateDone || refSt.Result == nil {
		t.Fatalf("reference run: state %s, result %v", refSt.State, refSt.Result)
	}

	// Contended server: one slot, the victim starts, then a
	// high-priority job arrives and evicts it.
	srv := New(Config{Slots: 1})
	defer srv.Shutdown()
	vj, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitSteps(t, srv, vj.ID, 3) // let it get properly mid-flight
	hj, err := srv.Submit(JobSpec{Tenant: "vip", Priority: 5, Ranks: 2, LocalElems: 1, N: 5, Steps: 10})
	if err != nil {
		t.Fatal(err)
	}

	hiSt, err := srv.WaitJob(hj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if hiSt.State != StateDone {
		t.Fatalf("high-priority job: state %s (%s)", hiSt.State, hiSt.Error)
	}
	vicSt, err := srv.WaitJob(vj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if vicSt.State != StateDone || vicSt.Result == nil {
		t.Fatalf("victim: state %s (%s)", vicSt.State, vicSt.Error)
	}
	if vicSt.Preemptions < 1 || vicSt.Resumes < 1 {
		t.Fatalf("victim was not preempted: preemptions=%d resumes=%d", vicSt.Preemptions, vicSt.Resumes)
	}
	if len(vicSt.Slots) < 2 {
		t.Fatalf("victim ran %d segments, want >= 2 (slot history %v)", len(vicSt.Slots), vicSt.Slots)
	}
	if vicSt.StepsDone != spec.Steps {
		t.Fatalf("victim completed %d steps, want %d", vicSt.StepsDone, spec.Steps)
	}
	if vicSt.PreemptLatS <= 0 {
		t.Fatal("victim preemption latency was not measured")
	}
	if !sameResult(vicSt.Result, refSt.Result) {
		t.Fatalf("preempted result differs from uninterrupted run:\n  got  %+v\n  want %+v",
			vicSt.Result, refSt.Result)
	}
}

// TestPreemptionOrder: the weakest-priority running job is the victim,
// and non-preemptible (faulted) jobs are never evicted.
func TestPreemptionOrder(t *testing.T) {
	srv := New(Config{Slots: 2, Limits: Limits{MaxRunningPerTenant: 4}})
	defer srv.Shutdown()

	lo, err := srv.Submit(JobSpec{Tenant: "lo", Priority: 1, Ranks: 2, LocalElems: 1, Steps: 400})
	if err != nil {
		t.Fatal(err)
	}
	mid, err := srv.Submit(JobSpec{Tenant: "mid", Priority: 3, Ranks: 2, LocalElems: 1, Steps: 400})
	if err != nil {
		t.Fatal(err)
	}
	waitSteps(t, srv, lo.ID, 1)
	waitSteps(t, srv, mid.ID, 1)

	hi, err := srv.Submit(JobSpec{Tenant: "hi", Priority: 7, Ranks: 2, LocalElems: 1, Steps: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.WaitJob(hi.ID); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if srv.jobStatus(lo).Preemptions >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := srv.jobStatus(lo).Preemptions; got < 1 {
		t.Fatalf("lowest-priority job has %d preemptions, want >= 1", got)
	}
	if got := srv.jobStatus(mid).Preemptions; got != 0 {
		t.Fatalf("mid-priority job was preempted (%d) while a weaker victim ran", got)
	}
	srv.Cancel(lo.ID)
	srv.Cancel(mid.ID)
}

func TestWarmCacheSkipsSetup(t *testing.T) {
	srv := New(Config{Slots: 1})
	defer srv.Shutdown()
	spec := JobSpec{Tenant: "t", Ranks: 2, LocalElems: 1, Steps: 2}

	cold, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	coldSt, err := srv.WaitJob(cold.ID)
	if err != nil {
		t.Fatal(err)
	}
	if coldSt.CacheHit {
		t.Fatal("first submission of a shape reported a warm cache")
	}
	warm, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	warmSt, err := srv.WaitJob(warm.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !warmSt.CacheHit {
		t.Fatal("repeat submission of the same shape missed the cache")
	}
	if warmSt.Result == nil || coldSt.Result == nil || !sameResult(warmSt.Result, coldSt.Result) {
		t.Fatalf("warm result differs from cold:\n  cold %+v\n  warm %+v", coldSt.Result, warmSt.Result)
	}
	if warmSt.SetupSecs <= 0 || coldSt.SetupSecs <= 0 {
		t.Fatalf("setup seconds not measured: cold %g warm %g", coldSt.SetupSecs, warmSt.SetupSecs)
	}
}

func TestStepStreamAndCancel(t *testing.T) {
	srv := New(Config{Slots: 1})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, st := postJob(t, ts, `{"tenant":"t","ranks":2,"local_elems":1,"steps":6}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	stream, err := http.Get(ts.URL + "/jobs/" + itoa(st.ID) + "/steps")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	sc := bufio.NewScanner(stream.Body)
	var events []StepEvent
	var final map[string]json.RawMessage
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"final"`)) {
			if err := json.Unmarshal(line, &final); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var ev StepEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if len(events) != 6 {
		t.Fatalf("streamed %d step events, want 6", len(events))
	}
	for i, ev := range events {
		if ev.Step != i {
			t.Fatalf("event %d carries step %d", i, ev.Step)
		}
		if ev.Dt <= 0 {
			t.Fatalf("event %d has dt %g", i, ev.Dt)
		}
	}
	if final == nil {
		t.Fatal("stream ended without the final status line")
	}

	// Cancel path: a long job DELETEd mid-flight ends canceled.
	resp2, st2 := postJob(t, ts, `{"tenant":"t","ranks":2,"local_elems":1,"steps":500}`)
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("submit long: %d", resp2.StatusCode)
	}
	waitSteps(t, srv, st2.ID, 1)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+itoa(st2.ID), nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	fin, err := srv.WaitJob(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateCanceled {
		t.Fatalf("deleted job ended %s, want canceled", fin.State)
	}

	// Unknown id is a 404.
	r404, err := http.Get(ts.URL + "/jobs/99999")
	if err != nil {
		t.Fatal(err)
	}
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown job: %d, want 404", r404.StatusCode)
	}
}

// TestWarmSetupFasterThanCold measures the artifact cache's effect:
// across fresh servers, the first (cold) submission of a shape pays the
// reference-element build and the collective gs discovery; repeats reuse
// both. Sequential, uncontended submissions; medians, to shrug off
// scheduler noise.
func TestWarmSetupFasterThanCold(t *testing.T) {
	spec := JobSpec{Tenant: "t", Ranks: 4, N: 6, LocalElems: 1, Steps: 2}
	var cold, warm []float64
	for iter := 0; iter < 5; iter++ {
		srv := New(Config{Slots: 1})
		for i := 0; i < 3; i++ {
			j, err := srv.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			st, err := srv.WaitJob(j.ID)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != StateDone {
				t.Fatalf("iter %d job %d: %s (%s)", iter, i, st.State, st.Error)
			}
			if wantHit := i > 0; st.CacheHit != wantHit {
				t.Fatalf("iter %d job %d: cache_hit %v, want %v", iter, i, st.CacheHit, wantHit)
			}
			if st.CacheHit {
				warm = append(warm, st.SetupSecs)
			} else {
				cold = append(cold, st.SetupSecs)
			}
		}
		srv.Shutdown()
	}
	sort.Float64s(cold)
	sort.Float64s(warm)
	cm, wm := cold[len(cold)/2], warm[len(warm)/2]
	if wm >= cm {
		t.Fatalf("warm setup median %.6fs is not below cold median %.6fs (cold %v, warm %v)",
			wm, cm, cold, warm)
	}
}

// TestConcurrentSubmitsAllFinish is the server's liveness under load:
// concurrent HTTP submissions from three tenants, every third one high
// priority (so preemption and fair share both run), must all end done.
// Arrivals are a millisecond apart, so later ones land while the
// scheduler dispatches queued jobs: under -race this checks that the
// submit handler reads a job's fields only under the server mutex.
func TestConcurrentSubmitsAllFinish(t *testing.T) {
	srv := New(Config{Slots: 2})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const jobs = 8
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		spec := JobSpec{Tenant: fmt.Sprintf("tenant%d", i%3), Ranks: 2, N: 5, LocalElems: 1, Steps: 3}
		if i%3 == 2 {
			spec.Priority = 7
		}
		body, _ := json.Marshal(spec)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * time.Millisecond)
			resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			var st Status
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusCreated {
				errs[i] = fmt.Errorf("submit %d: status %d (%v)", i, resp.StatusCode, err)
				return
			}
			if st, errs[i] = srv.WaitJob(st.ID); errs[i] == nil && st.State != StateDone {
				errs[i] = fmt.Errorf("job %d (tenant %s, priority %d) ended %s (%s)", st.ID, st.Tenant, st.Priority, st.State, st.Error)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestFairSharePick exercises the dispatch policy directly: priority
// first, then least-consumed tenant, then FIFO sequence.
func TestFairSharePick(t *testing.T) {
	srv := New(Config{Slots: 1})
	a := newJob(1, 1, JobSpec{Tenant: "heavy"}.withDefaults())
	b := newJob(2, 2, JobSpec{Tenant: "light"}.withDefaults())
	srv.mu.Lock()
	defer srv.mu.Unlock()

	srv.queue = []*Job{a, b}
	srv.usage["heavy"] = 100
	if got := srv.pickLocked(); got != b {
		t.Fatalf("equal priority: picked %q, want the lighter tenant", got.Spec.Tenant)
	}
	// Priority trumps fair share.
	c := newJob(3, 3, JobSpec{Tenant: "heavy", Priority: 2}.withDefaults())
	srv.queue = append(srv.queue, c)
	if got := srv.pickLocked(); got != c {
		t.Fatalf("picked job %d, want the high-priority one", got.ID)
	}
	// FIFO within equal priority and usage.
	d := newJob(4, 4, JobSpec{Tenant: "light"}.withDefaults())
	srv.queue = []*Job{d, b}
	if got := srv.pickLocked(); got != b {
		t.Fatalf("picked job %d, want the earlier submission", got.ID)
	}
	// A tenant at its running quota is skipped.
	srv.queue = []*Job{b, a}
	run := newJob(5, 5, JobSpec{Tenant: "light"}.withDefaults())
	srv.running[run.ID] = run
	srv.lim.MaxRunningPerTenant = 1
	if got := srv.pickLocked(); got != a {
		t.Fatalf("picked job %d, want the unblocked tenant's job", got.ID)
	}
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

// TestCrashJobRecovers: a 4-rank job whose world rank 0 crashes after
// its first auto-checkpoint ends done on the survivors. Its step stream
// counts each step once although the survivors replay two of them, and
// its result — reported by the lowest survivor — is bit-identical to the
// same scenario run directly through fault.Runner over a directory
// store, so the memory and directory stores are interchangeable (the
// plain job's integrals may differ in the last bits: the survivors sum
// them over three ranks, not four). A recovered run donates nothing to
// the setup cache; the crash job
// submitted after a plain job of its shape starts from the cached gs
// topologies, which recovery must not carry onto the survivors'
// partition.
func TestCrashJobRecovers(t *testing.T) {
	spec := JobSpec{Tenant: "t", Ranks: 4, Steps: ckptEvery + 5, Faults: &fault.Spec{
		Seed: 3, Crashes: []fault.CrashSpec{{Rank: 0, Step: ckptEvery + 2}},
	}}
	plain := spec
	plain.Faults = nil
	want := runDirect(t, spec)

	srv := New(Config{Slots: 1})
	defer srv.Shutdown()
	for i, sp := range []JobSpec{spec, plain, spec} {
		j, err := srv.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		st, err := srv.WaitJob(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone || st.Result == nil {
			t.Fatalf("submission %d: state %s (%s)", i, st.State, st.Error)
		}
		if st.CacheHit != (i == 2) {
			t.Fatalf("submission %d: cache_hit %v", i, st.CacheHit)
		}
		if st.StepsDone != spec.Steps {
			t.Fatalf("submission %d: %d steps done, want %d", i, st.StepsDone, spec.Steps)
		}
		if sp.Faults != nil && !sameResult(st.Result, want) {
			t.Fatalf("submission %d: result differs from the direct crash run:\n  got  %+v\n  want %+v", i, st.Result, want)
		}
	}
}

// runDirect runs a faulted spec the way cmtbone does: one comm.Run, the
// steps through fault.Runner with auto-checkpoints in a directory, the
// summary from the lowest survivor.
func runDirect(t *testing.T, spec JobSpec) *Result {
	t.Helper()
	spec = spec.withDefaults()
	cfg, model := spec.solverConfig()
	opts := comm.Options{Model: model, Grid: cfg.ProcGrid, Periodic: cfg.Periodic,
		Faults: fault.NewInjector(spec.Faults, spec.Ranks, nil)}
	store := checkpoint.Dir(t.TempDir())
	var res *Result
	_, err := comm.Run(spec.Ranks, opts, func(r *comm.Rank) error {
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		s.SetInitial(solver.GaussianPulse( // every job's initial condition
			float64(cfg.ElemGrid[0])/2, float64(cfg.ElemGrid[1])/2, float64(cfg.ElemGrid[2])/2,
			0.1, 0.5))
		rn, err := fault.NewRunner(s, fault.Config{Spec: spec.Faults, Store: store, CkptEvery: ckptEvery})
		if err != nil {
			s.Close()
			return err
		}
		defer rn.Close()
		rep, err := rn.Run(0, spec.Steps, nil)
		if err != nil {
			return err
		}
		d := diag.Compute(rn.Solver())
		if rn.Solver().Rank.ID() == 0 {
			res = resultFrom(rep, d, 0, spec.GS)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}
