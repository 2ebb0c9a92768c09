package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// ServeLoadOptions configures one job-server load run.
type ServeLoadOptions struct {
	// Slots is the server's runner-slot count (default 2).
	Slots int
	// Jobs is the number of submissions (default 24).
	Jobs int
	// Tenants round-robins submissions over this many tenant ids
	// (default 3), exercising the fair-share path.
	Tenants int
	// PreemptEvery makes every k-th job high-priority (priority 7), so
	// the run measures preemption latency too. 0 disables (default 6).
	PreemptEvery int
	// Job shape (defaults: Ranks 2, N 5, LocalElems 1, Steps 5).
	Ranks, N, LocalElems, Steps int
	// RatePerSec, when > 0, paces submissions open-loop at this rate;
	// 0 submits the whole batch immediately (burst).
	RatePerSec float64
}

// Defaults fills unset fields with the standard load shape.
func (o *ServeLoadOptions) Defaults() {
	if o.Slots == 0 {
		o.Slots = 2
	}
	if o.Jobs == 0 {
		o.Jobs = 24
	}
	if o.Tenants == 0 {
		o.Tenants = 3
	}
	if o.PreemptEvery == 0 {
		o.PreemptEvery = 6
	}
	if o.Ranks == 0 {
		o.Ranks = 2
	}
	if o.N == 0 {
		o.N = 5
	}
	if o.LocalElems == 0 {
		o.LocalElems = 1
	}
	if o.Steps == 0 {
		o.Steps = 5
	}
}

// ServeLoadResult is the measured outcome of a load run.
type ServeLoadResult struct {
	Submitted   int     `json:"submitted"`
	Completed   int     `json:"completed"`
	Preemptions int     `json:"preemptions"`
	Resumes     int     `json:"resumes"`
	CacheHits   int     `json:"cache_hits"`
	WallSeconds float64 `json:"wall_seconds"`
	JobsPerSec  float64 `json:"jobs_per_sec"`

	TTFSP50 float64 `json:"ttfs_p50_s"`
	TTFSP99 float64 `json:"ttfs_p99_s"`
	// ColdSetupS is the solver-setup wall time of the sequential
	// cache-miss probe; WarmSetupS the median of the cache-hit probes
	// that follow it. Both are uncontended, so warm lower than cold is
	// the artifact cache paying off, not scheduling luck.
	ColdSetupS float64 `json:"cold_setup_s"`
	WarmSetupS float64 `json:"warm_setup_s"`

	PreemptP50 float64 `json:"preempt_latency_p50_s,omitempty"`
	PreemptP99 float64 `json:"preempt_latency_p99_s,omitempty"`
}

// ServeLoad runs an open-loop load generation against an in-process job
// server driven through its real HTTP front (httptest transport), and
// reports sustained throughput, time-to-first-step percentiles, and
// preemption latency. The server-side measured latencies (TTFS, setup,
// preemption) come from the job statuses, so they are transport-noise
// free; throughput includes the full HTTP + scheduler path.
func ServeLoad(opts ServeLoadOptions) (*ServeLoadResult, error) {
	opts.Defaults()
	reg := obs.NewRegistry()
	srv := serve.New(serve.Config{
		Slots:   opts.Slots,
		Metrics: reg,
		Limits:  serve.Limits{MaxQueuedPerTenant: opts.Jobs + 1, MaxRunningPerTenant: opts.Slots},
	})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var interval time.Duration
	if opts.RatePerSec > 0 {
		interval = time.Duration(float64(time.Second) / opts.RatePerSec)
	}

	res := &ServeLoadResult{Submitted: opts.Jobs}

	// Cache probe: one cold then three warm submissions of the load
	// shape, sequential and uncontended, so the cold/warm setup split
	// measures the artifact cache and not CPU contention. This also
	// pre-warms the cache for the burst (every load job then measures
	// the steady state a long-running server serves from).
	probe := serve.JobSpec{
		Tenant: "probe", Ranks: opts.Ranks, N: opts.N,
		LocalElems: opts.LocalElems, Steps: 2,
	}
	var warm []float64
	for i := 0; i < 4; i++ {
		body, _ := json.Marshal(probe)
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("serveload: probe %d: %w", i, err)
		}
		var st serve.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated {
			return nil, fmt.Errorf("serveload: probe %d: status %d (%v)", i, resp.StatusCode, err)
		}
		fin, err := srv.WaitJob(st.ID)
		if err != nil {
			return nil, err
		}
		if fin.State != serve.StateDone {
			return nil, fmt.Errorf("serveload: probe %d ended %s (%s)", i, fin.State, fin.Error)
		}
		if fin.CacheHit {
			warm = append(warm, fin.SetupSecs)
		} else {
			res.ColdSetupS = fin.SetupSecs
		}
	}
	res.WarmSetupS = percentile(warm, 0.50)

	// Open loop: submissions fire without waiting for server progress
	// (each on its own goroutine), so a busy server accumulates a real
	// queue instead of throttling the generator — that queue is what
	// exercises fair share and preemption.
	start := time.Now()
	ids := make([]int64, opts.Jobs)
	errs := make([]error, opts.Jobs)
	var wg sync.WaitGroup
	for i := 0; i < opts.Jobs; i++ {
		spec := serve.JobSpec{
			Tenant:     fmt.Sprintf("tenant%d", i%opts.Tenants),
			Ranks:      opts.Ranks,
			N:          opts.N,
			LocalElems: opts.LocalElems,
			Steps:      opts.Steps,
		}
		if opts.PreemptEvery > 0 && i%opts.PreemptEvery == opts.PreemptEvery-1 {
			spec.Priority = 7
		}
		wg.Add(1)
		go func(i int, spec serve.JobSpec) {
			defer wg.Done()
			body, _ := json.Marshal(spec)
			resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = fmt.Errorf("serveload: submit %d: %w", i, err)
				return
			}
			var st serve.Status
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusCreated {
				errs[i] = fmt.Errorf("serveload: submit %d: status %d (%v)", i, resp.StatusCode, err)
				return
			}
			ids[i] = st.ID
		}(i, spec)
		if interval > 0 {
			time.Sleep(interval)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var ttfs, preempt []float64
	for _, id := range ids {
		st, err := srv.WaitJob(id)
		if err != nil {
			return nil, err
		}
		if st.State != serve.StateDone {
			return nil, fmt.Errorf("serveload: job %d ended %s (%s)", id, st.State, st.Error)
		}
		res.Completed++
		res.Preemptions += st.Preemptions
		res.Resumes += st.Resumes
		ttfs = append(ttfs, st.TTFSSeconds)
		if st.CacheHit {
			res.CacheHits++
		}
		if st.PreemptLatS > 0 {
			preempt = append(preempt, st.PreemptLatS)
		}
	}
	res.WallSeconds = time.Since(start).Seconds()
	if res.WallSeconds > 0 {
		res.JobsPerSec = float64(res.Completed) / res.WallSeconds
	}
	res.TTFSP50, res.TTFSP99 = percentile(ttfs, 0.50), percentile(ttfs, 0.99)
	res.PreemptP50 = percentile(preempt, 0.50)
	res.PreemptP99 = percentile(preempt, 0.99)
	return res, nil
}

// percentile returns the q-quantile of vals by nearest rank (0 when
// empty).
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(q * float64(len(s)-1))
	return s[i]
}
