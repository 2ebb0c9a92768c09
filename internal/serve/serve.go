// Package serve is the simulation-as-a-service layer: a multi-tenant
// job server over the in-process solver. Clients POST simulation job
// specs (mesh size, order, physics flags, fault scenario, step budget)
// tagged with a tenant id and a priority; the server admits them against
// a limits policy, queues them with per-tenant quotas and fair-share
// accounting, and executes each job as fault.Runner runs over a fixed
// pool of runner slots. Higher-priority submissions preempt running jobs
// through the runner's step hook: the victim's ranks collectively agree
// on a suspend step, write their state into the job's in-memory
// checkpoint store, vacate the slot, and later resume — possibly on a
// different slot — with bit-identical final results. Setup artifacts
// (reference-element operators, gather-scatter topologies) are cached by
// mesh shape, so repeat submissions skip the discovery collectives.
package serve

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Config configures a Server. Zero values take defaults.
type Config struct {
	// Slots is the number of runner slots — jobs executing concurrently
	// (default 2). Each running job occupies one slot regardless of its
	// rank count; ranks are goroutines, so a slot is an admission token,
	// not a core.
	Slots int
	// Limits is the admission policy (zero fields take DefaultLimits).
	Limits Limits
	// Metrics, when non-nil, receives server counters and histograms;
	// each job additionally charges its solver metrics under a
	// "job<id>_" prefix of the same registry.
	Metrics *obs.Registry
}

// RejectError is an admission failure with the HTTP status the API maps
// it to: 400 for an invalid spec, 429 for a tenant over quota, 503 when
// the server is shutting down.
type RejectError struct {
	Code   int
	Reason string
}

func (e *RejectError) Error() string { return e.Reason }

// Server is the job scheduler: one queue, a fixed slot pool, per-tenant
// fair-share accounting, and the setup-artifact cache.
type Server struct {
	slots   int
	lim     Limits
	metrics *obs.Registry
	cache   *artifactCache

	hTTFS    *obs.Histogram
	hPreempt *obs.Histogram

	mu        sync.Mutex
	closed    bool
	nextID    int64
	nextSeq   int64
	jobs      map[int64]*Job
	queue     []*Job         // StateQueued / StateSuspended, awaiting dispatch
	running   map[int64]*Job // jobs holding a slot (Running or Suspending)
	freeSlots []int
	usage     map[string]float64 // tenant -> consumed rank-seconds (fair share)
	wg        sync.WaitGroup
}

// New builds a Server.
func New(cfg Config) *Server {
	if cfg.Slots <= 0 {
		cfg.Slots = 2
	}
	cfg.Limits.normalize()
	s := &Server{
		slots:   cfg.Slots,
		lim:     cfg.Limits,
		metrics: cfg.Metrics,
		cache:   newArtifactCache(cfg.Metrics),
		hTTFS: cfg.Metrics.Histogram("serve_ttfs_seconds",
			[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}),
		hPreempt: cfg.Metrics.Histogram("serve_preempt_latency_seconds",
			[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}),
		jobs:    make(map[int64]*Job),
		running: make(map[int64]*Job),
		usage:   make(map[string]float64),
	}
	for i := 0; i < cfg.Slots; i++ {
		s.freeSlots = append(s.freeSlots, i)
	}
	return s
}

// Handler returns the HTTP API (see http.go for the routes).
func (s *Server) Handler() http.Handler { return s.buildMux() }

// Submit admits a job spec: an invalid spec or an over-quota tenant
// returns a *RejectError carrying the HTTP status; an admitted job is
// queued (and dispatched immediately when a slot is free) and returned.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	if err := spec.Validate(s.lim); err != nil {
		s.metrics.Counter("serve_jobs_rejected").Add(1)
		return nil, &RejectError{Code: http.StatusBadRequest, Reason: err.Error()}
	}
	spec = spec.withDefaults()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, &RejectError{Code: http.StatusServiceUnavailable, Reason: "server is shutting down"}
	}
	if n := s.pendingOfLocked(spec.Tenant); n >= s.lim.MaxQueuedPerTenant {
		s.metrics.Counter("serve_jobs_quota_rejected").Add(1)
		return nil, &RejectError{
			Code:   http.StatusTooManyRequests,
			Reason: fmt.Sprintf("tenant %q has %d queued jobs, quota %d", spec.Tenant, n, s.lim.MaxQueuedPerTenant),
		}
	}
	s.nextID++
	s.nextSeq++
	j := newJob(s.nextID, s.nextSeq, spec)
	s.jobs[j.ID] = j
	s.queue = append(s.queue, j)
	s.metrics.Counter("serve_jobs_submitted").Add(1)
	s.scheduleLocked()
	return j, nil
}

// Job returns the job by id, or nil.
func (s *Server) Job(id int64) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Cancel stops a job: a queued or suspended job is canceled on the
// spot; a running job is flagged and cancels collectively at its next
// step boundary. Canceling a terminal job is a no-op. Returns false if
// the id is unknown.
func (s *Server) Cancel(id int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return false
	}
	s.cancelLocked(j)
	return true
}

func (s *Server) cancelLocked(j *Job) {
	j.cancel.Store(true)
	switch j.State() {
	case StateQueued, StateSuspended:
		s.dropFromQueueLocked(j)
		s.endLocked(j, StateCanceled, nil, nil)
		s.scheduleLocked()
	case StateRunning, StateSuspending:
		j.ctl.Store(ctlCancel)
	}
}

// endLocked moves j to terminal state st with its result or error,
// releases its checkpoint store and counts it (serve_jobs_<state>).
func (s *Server) endLocked(j *Job, st JobState, res *Result, err error) {
	j.ckpt = nil
	j.mu.Lock()
	j.state, j.result = st, res
	if err != nil {
		j.err = err.Error()
	}
	j.cond.Broadcast()
	j.mu.Unlock()
	s.metrics.Counter("serve_jobs_" + string(st)).Add(1)
}

// jobStatus snapshots one job under the server mutex, which guards the
// scheduling fields (slots, resumes, ...) that status reads.
func (s *Server) jobStatus(j *Job) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.status()
}

// Statuses snapshots every job, newest first.
func (s *Server) Statuses() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.status())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID > out[b].ID })
	return out
}

// Stats is the server-level snapshot of GET /stats.
type ServerStats struct {
	Slots       int                `json:"slots"`
	FreeSlots   int                `json:"free_slots"`
	Queued      int                `json:"queued"`
	Running     int                `json:"running"`
	Jobs        int                `json:"jobs"`
	CachedMesh  int                `json:"cached_shapes"`
	TenantUsage map[string]float64 `json:"tenant_rank_seconds"`
	Limits      Limits             `json:"limits"`
}

// Stats snapshots the scheduler state.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	usage := make(map[string]float64, len(s.usage))
	for k, v := range s.usage {
		usage[k] = v
	}
	return ServerStats{
		Slots: s.slots, FreeSlots: len(s.freeSlots),
		Queued: len(s.queue), Running: len(s.running), Jobs: len(s.jobs),
		CachedMesh: s.cache.size(), TenantUsage: usage, Limits: s.lim,
	}
}

// Shutdown cancels every job and waits for the slots to drain. Running
// jobs stop collectively at their next step boundary, so the drain is
// bounded by one timestep per running job.
func (s *Server) Shutdown() {
	s.mu.Lock()
	s.closed = true
	for _, j := range s.jobs {
		if !terminal(j.State()) {
			s.cancelLocked(j)
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// pendingOfLocked counts a tenant's jobs that are admitted but not
// terminal and not currently holding a slot — the queue-quota
// denominator.
func (s *Server) pendingOfLocked(tenant string) int {
	n := 0
	for _, j := range s.queue {
		if j.Spec.Tenant == tenant {
			n++
		}
	}
	return n
}

// runningOfLocked counts a tenant's jobs holding slots.
func (s *Server) runningOfLocked(tenant string) int {
	n := 0
	for _, j := range s.running {
		if j.Spec.Tenant == tenant {
			n++
		}
	}
	return n
}

func (s *Server) dropFromQueueLocked(j *Job) {
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// pickLocked selects the next job to dispatch: among tenants under
// their running quota, the highest priority wins; within a priority the
// tenant with the least consumed rank-seconds wins (fair share); within
// a tenant, FIFO by submission sequence. Linear scan — the queue is
// small and the policy stays deterministic and auditable.
func (s *Server) pickLocked() *Job {
	var best *Job
	for _, j := range s.queue {
		if s.runningOfLocked(j.Spec.Tenant) >= s.lim.MaxRunningPerTenant {
			continue
		}
		if best == nil || s.betterLocked(j, best) {
			best = j
		}
	}
	return best
}

// betterLocked reports whether a should dispatch before b.
func (s *Server) betterLocked(a, b *Job) bool {
	if a.Spec.Priority != b.Spec.Priority {
		return a.Spec.Priority > b.Spec.Priority
	}
	ua, ub := s.usage[a.Spec.Tenant], s.usage[b.Spec.Tenant]
	if ua != ub {
		return ua < ub
	}
	return a.seq < b.seq
}

// scheduleLocked is the dispatch loop, run under s.mu after every
// scheduler event (submit, segment exit, cancel): fill free slots from
// the queue, then — if demand remains — preempt.
func (s *Server) scheduleLocked() {
	for len(s.freeSlots) > 0 {
		j := s.pickLocked()
		if j == nil {
			break
		}
		slot := s.freeSlots[len(s.freeSlots)-1]
		s.freeSlots = s.freeSlots[:len(s.freeSlots)-1]
		s.dispatchLocked(j, slot)
	}
	s.maybePreemptLocked()
	s.metrics.Gauge("serve_queue_depth").Set(float64(len(s.queue)))
	s.metrics.Gauge("serve_running").Set(float64(len(s.running)))
}

func (s *Server) dispatchLocked(j *Job, slot int) {
	s.dropFromQueueLocked(j)
	j.slot = slot
	j.slots = append(j.slots, slot)
	if j.resumeStep > 0 {
		j.resumes++
		s.metrics.Counter("serve_resumes").Add(1)
	}
	j.ctl.Store(ctlNone)
	j.setState(StateRunning)
	s.running[j.ID] = j
	s.wg.Add(1)
	go s.runSegment(j, slot)
}

// maybePreemptLocked requests a suspend when the best queued job
// outranks the weakest running preemptible job and no slot is free. The
// victim checkpoints at its next step boundary and the freed slot is
// dispatched by the segment-exit path.
func (s *Server) maybePreemptLocked() {
	if len(s.freeSlots) > 0 {
		return
	}
	want := s.pickLocked()
	if want == nil {
		return
	}
	var victim *Job
	for _, j := range s.running {
		if j.State() != StateRunning || !j.Spec.Preemptible() {
			continue
		}
		if j.Spec.Priority >= want.Spec.Priority {
			continue
		}
		// Weakest first; among equals evict the youngest (least sunk work).
		if victim == nil || j.Spec.Priority < victim.Spec.Priority ||
			(j.Spec.Priority == victim.Spec.Priority && j.seq > victim.seq) {
			victim = j
		}
	}
	if victim == nil {
		return
	}
	victim.preemptReq = time.Now()
	victim.ctl.Store(ctlSuspend)
	victim.setState(StateSuspending)
	s.metrics.Counter("serve_preempt_requests").Add(1)
}

// WaitJob blocks until the job reaches a terminal state and returns its
// final status (a convenience for tests and embedders).
func (s *Server) WaitJob(id int64) (Status, error) {
	j := s.Job(id)
	if j == nil {
		return Status{}, fmt.Errorf("serve: no job %d", id)
	}
	n := -1
	for {
		var st JobState
		n, st = j.waitChange(n)
		if terminal(st) {
			return s.jobStatus(j), nil
		}
	}
}
