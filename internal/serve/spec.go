package serve

import (
	"fmt"
	"regexp"

	"repro/internal/fault"
	"repro/internal/gs"
	"repro/internal/netmodel"
	"repro/internal/solver"
)

// JobSpec is the submission body of POST /jobs: one simulation job —
// the mesh shape, polynomial order, physics flags, optional fault
// scenario, and step budget — plus the multi-tenancy envelope (tenant
// id, priority). Zero-valued knobs take the documented defaults.
type JobSpec struct {
	// Tenant is the submitting tenant's id (required; lowercase
	// alphanumerics plus '-' and '_'). Quotas and fair-share accounting
	// key on it.
	Tenant string `json:"tenant"`
	// Priority orders dispatch, 0 (default) through MaxPriority; a
	// higher-priority submission may preempt a running lower-priority
	// job.
	Priority int `json:"priority,omitempty"`

	// Ranks is the communicator size (default 4).
	Ranks int `json:"ranks,omitempty"`
	// N is the polynomial order: GLL points per direction per element
	// (default 5).
	N int `json:"n,omitempty"`
	// LocalElems is elements per rank per direction (default 2), so the
	// job owns Ranks * LocalElems^3 elements.
	LocalElems int `json:"local_elems,omitempty"`
	// Steps is the timestep budget (default 10).
	Steps int `json:"steps,omitempty"`

	// GS selects the gather-scatter method: pairwise (default),
	// crystal, or allreduce.
	GS string `json:"gs,omitempty"`
	// Net names the modeled network (default loopback; see
	// netmodel.Names).
	Net string `json:"net,omitempty"`
	// Physics flags, mirroring the cmtbone knobs.
	Dealias      bool    `json:"dealias,omitempty"`
	Mu           float64 `json:"mu,omitempty"`
	FilterCutoff int     `json:"filter_cutoff,omitempty"`
	Overlap      bool    `json:"overlap,omitempty"`
	// Workers is the intra-rank worker-pool width (default 1: slots
	// provide the wall-clock parallelism in a shared server).
	Workers int `json:"workers,omitempty"`

	// Faults, when non-nil, is a deterministic fault scenario (message
	// faults, stalls, crashes), run as cmtbone runs it: a crash is
	// recovered on the survivors from in-memory auto-checkpoints. A
	// faulted job is not preemptible: its fault windows are defined on
	// the virtual clock, which restarts on resume.
	Faults *fault.Spec `json:"faults,omitempty"`
}

// MaxPriority bounds JobSpec.Priority.
const MaxPriority = 9

// Limits is the admission-control policy: any spec outside it is
// rejected with a reason (HTTP 400), and per-tenant counts above the
// quotas are deferred (HTTP 429). The zero value means DefaultLimits.
type Limits struct {
	MaxRanks int `json:"max_ranks"`
	MaxN     int `json:"max_n"`
	MaxSteps int `json:"max_steps"`
	// MaxElems bounds Ranks * LocalElems^3, the job's global element
	// count — the memory and compute envelope.
	MaxElems int `json:"max_elems"`
	// MaxQueuedPerTenant bounds a tenant's queued + suspended jobs.
	MaxQueuedPerTenant int `json:"max_queued_per_tenant"`
	// MaxRunningPerTenant bounds a tenant's concurrently running jobs;
	// jobs over it stay queued (not rejected) until a slot frees under
	// the quota.
	MaxRunningPerTenant int `json:"max_running_per_tenant"`
}

// DefaultLimits is a policy sized for the in-process runner slots.
func DefaultLimits() Limits {
	return Limits{
		MaxRanks:            16,
		MaxN:                12,
		MaxSteps:            1000,
		MaxElems:            4096,
		MaxQueuedPerTenant:  32,
		MaxRunningPerTenant: 2,
	}
}

// normalize fills zero fields with the defaults.
func (l *Limits) normalize() {
	d := DefaultLimits()
	if l.MaxRanks == 0 {
		l.MaxRanks = d.MaxRanks
	}
	if l.MaxN == 0 {
		l.MaxN = d.MaxN
	}
	if l.MaxSteps == 0 {
		l.MaxSteps = d.MaxSteps
	}
	if l.MaxElems == 0 {
		l.MaxElems = d.MaxElems
	}
	if l.MaxQueuedPerTenant == 0 {
		l.MaxQueuedPerTenant = d.MaxQueuedPerTenant
	}
	if l.MaxRunningPerTenant == 0 {
		l.MaxRunningPerTenant = d.MaxRunningPerTenant
	}
}

var tenantRe = regexp.MustCompile(`^[a-z0-9][a-z0-9_-]{0,63}$`)

// withDefaults returns a copy with zero knobs filled in; admission and
// execution both see the same concrete spec.
func (sp JobSpec) withDefaults() JobSpec {
	if sp.Ranks == 0 {
		sp.Ranks = 4
	}
	if sp.N == 0 {
		sp.N = 5
	}
	if sp.LocalElems == 0 {
		sp.LocalElems = 2
	}
	if sp.Steps == 0 {
		sp.Steps = 10
	}
	if sp.GS == "" {
		sp.GS = "pairwise"
	}
	if sp.Net == "" {
		sp.Net = netmodel.Loopback.Name
	}
	if sp.Workers == 0 {
		sp.Workers = 1
	}
	return sp
}

// Validate is the admission check: a nil error means the (defaulted)
// spec is runnable under the limits. Every rejection carries the
// reason the client sees in the 400 body.
func (sp JobSpec) Validate(lim Limits) error {
	lim.normalize()
	sp = sp.withDefaults()
	if sp.Tenant == "" {
		return fmt.Errorf("tenant is required")
	}
	if !tenantRe.MatchString(sp.Tenant) {
		return fmt.Errorf("tenant %q is not a valid id (want %s)", sp.Tenant, tenantRe)
	}
	if sp.Priority < 0 || sp.Priority > MaxPriority {
		return fmt.Errorf("priority %d outside [0,%d]", sp.Priority, MaxPriority)
	}
	if sp.Ranks < 1 || sp.Ranks > lim.MaxRanks {
		return fmt.Errorf("ranks %d outside [1,%d]", sp.Ranks, lim.MaxRanks)
	}
	if sp.N < 2 || sp.N > lim.MaxN {
		return fmt.Errorf("n %d outside [2,%d]", sp.N, lim.MaxN)
	}
	if sp.LocalElems < 1 {
		return fmt.Errorf("local_elems %d must be >= 1", sp.LocalElems)
	}
	if elems := sp.Ranks * sp.LocalElems * sp.LocalElems * sp.LocalElems; elems > lim.MaxElems {
		return fmt.Errorf("job spans %d elements, limit %d", elems, lim.MaxElems)
	}
	if sp.Steps < 1 || sp.Steps > lim.MaxSteps {
		return fmt.Errorf("steps %d outside [1,%d]", sp.Steps, lim.MaxSteps)
	}
	if _, err := gs.ParseMethod(sp.GS); err != nil {
		return fmt.Errorf("gs: %v", err)
	}
	if _, err := netmodel.ByName(sp.Net); err != nil {
		return fmt.Errorf("net: %v", err)
	}
	if sp.Mu < 0 {
		return fmt.Errorf("mu %g must be >= 0", sp.Mu)
	}
	if sp.FilterCutoff != 0 && (sp.FilterCutoff < 0 || sp.FilterCutoff >= sp.N) {
		return fmt.Errorf("filter_cutoff %d outside [0,%d)", sp.FilterCutoff, sp.N)
	}
	if sp.Workers < 1 || sp.Workers > 8 {
		return fmt.Errorf("workers %d outside [1,8]", sp.Workers)
	}
	if sp.Faults != nil {
		if err := sp.Faults.Validate(); err != nil {
			return fmt.Errorf("faults: %v", err)
		}
		if err := sp.Faults.CheckRun(sp.Ranks, heartbeatEvery); err != nil {
			return fmt.Errorf("faults: %v", err)
		}
	}
	return nil
}

// Preemptible reports whether a running job with this spec can be
// suspended and resumed bit-identically.
func (sp JobSpec) Preemptible() bool { return sp.Faults == nil }

// solverConfig maps the (defaulted, validated) spec onto a solver
// configuration. The gather-scatter method and netmodel parse cleanly:
// Validate already vetted them.
func (sp JobSpec) solverConfig() (solver.Config, netmodel.Model) {
	sp = sp.withDefaults()
	cfg := solver.DefaultConfig(sp.Ranks, sp.N, sp.LocalElems)
	m, _ := gs.ParseMethod(sp.GS)
	cfg.GSMethod = m
	cfg.Dealias = sp.Dealias
	cfg.Mu = sp.Mu
	cfg.FilterCutoff = sp.FilterCutoff
	cfg.Overlap = sp.Overlap
	cfg.Workers = sp.Workers
	model, _ := netmodel.ByName(sp.Net)
	return cfg, model
}

// CacheKey identifies the setup artifacts a spec can reuse: everything
// the reference operators and the gs discovery depend on — the mesh
// shape and partition, the order, and the dealiasing rule. Physics
// flags, step budgets, and tenancy deliberately do not appear: they
// share artifacts.
type CacheKey struct {
	Ranks      int
	N          int
	LocalElems int
}

// cacheKey returns the artifact key of the defaulted spec.
func (sp JobSpec) cacheKey() CacheKey {
	sp = sp.withDefaults()
	return CacheKey{Ranks: sp.Ranks, N: sp.N, LocalElems: sp.LocalElems}
}
