package loadbal

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/particles"
	"repro/internal/solver"
)

// Balancer runs the measure / plan / migrate loop on one rank. Every
// cfg.Every steps it folds the epoch's measured kernel seconds (and
// particle counts) into the solver's per-element cost EWMA
// (Solver.Cost), sum-reduces the global per-gid cost vector to rank 0,
// which plans a space-filling-curve repartition and broadcasts the
// decision; when the plan pays, every rank executes Solver.Remap and
// re-migrates its particles. Pass the balancer to fault.Runner.Run, which
// calls AfterStep every step and Follow after a recovery (or hook
// AfterStep into Solver.RunWith).
//
// Construction and every epoch are collective: build one Balancer per
// rank with identical Config and call AfterStep on all ranks every step.
type Balancer struct {
	cfg   Config
	s     *solver.Solver
	cloud *particles.Cloud

	shares     []float64
	prevKernel float64

	// Epochs, Rebalances and Skips count the planning rounds and their
	// outcomes; MovedElems/MovedBytes accumulate the global migration
	// volume, counted from the broadcast owner maps. Every rank holds the
	// same values, including a survivor of a crash for the rounds the
	// dead rank took part in. Last is the most recent decision.
	Epochs     int
	Rebalances int
	Skips      int
	MovedElems int
	MovedBytes int64
	Last       Decision

	mReb, mSkip, mElems, mBytes *obs.Counter
	gBefore, gAfter             *obs.Gauge
}

// New builds the balancer for one rank. cloud may be nil (no particle
// phase); metrics may be nil. The solver must have been constructed
// already (the balancer reads its initial ownership lazily).
func New(s *solver.Solver, cloud *particles.Cloud, metrics *obs.Registry, cfg Config) *Balancer {
	cfg = cfg.withDefaults()
	b := &Balancer{
		cfg:        cfg,
		s:          s,
		cloud:      cloud,
		prevKernel: s.KernelSeconds(),
	}
	if metrics != nil {
		b.mReb = metrics.Counter("loadbal_rebalances")
		b.mSkip = metrics.Counter("loadbal_skips")
		b.mElems = metrics.Counter("loadbal_migrated_elems")
		b.mBytes = metrics.Counter("loadbal_migrated_bytes")
		b.gBefore = metrics.Gauge("loadbal_imbalance_before")
		b.gAfter = metrics.Gauge("loadbal_imbalance_after")
	}
	return b
}

// AfterStep is the per-step hook for Solver.RunWith: a no-op except at
// epoch boundaries, where it runs one collective measure/plan/migrate
// round.
func (b *Balancer) AfterStep(step int) {
	if (step+1)%b.cfg.Every != 0 {
		return
	}
	b.epoch()
}

// Follow points the balancer at s when s replaces the solver it was
// built on — the fault runner's rebuild after a recovery, which happens
// within the current epoch. The costs come with s (restored from the
// checkpoint's records); the kernel-seconds baseline resets to s's
// start, so every step s has run counts toward the epoch. A no-op for
// the current solver.
func (b *Balancer) Follow(s *solver.Solver) {
	if s != b.s {
		b.s = s
		b.prevKernel = 0
	}
}

// epoch runs one collective measure / plan / migrate round.
func (b *Balancer) epoch() {
	defer b.s.Rec.Region("rebalance_epoch", obs.CatStep).End()

	// Measure: attribute this epoch's kernel seconds to elements by
	// weight share, add the particle surcharge, smooth.
	k := b.s.KernelSeconds()
	perStep := (k - b.prevKernel) / float64(b.cfg.Every)
	b.prevKernel = k
	b.shares = b.s.ElemCostShares(b.shares)
	nel := b.s.Local.Nel
	sample := make([]float64, nel)
	for e := 0; e < nel; e++ {
		sample[e] = b.shares[e] * perStep
	}
	if b.cloud != nil && b.cfg.ParticleCost > 0 {
		for e, c := range b.cloud.CountsPerElem() {
			sample[e] += b.cfg.ParticleCost * float64(c)
		}
	}
	b.foldCosts(sample)

	// Reduce the global per-gid cost vector to the root planner.
	own := b.s.Ownership()
	nGlobal := own.Box().TotalElems()
	gcost := make([]float64, nGlobal)
	for e := 0; e < nel; e++ {
		gcost[b.s.Local.GID(e)] = b.s.Cost[e]
	}
	r := b.s.Rank
	r.SetSite("loadbal_plan")
	gcost = r.Reduce(comm.OpSum, 0, gcost)

	// Root plans; the decision and proposed owner map are broadcast so
	// every rank acts identically.
	wire := make([]int64, 1+nGlobal)
	stats := make([]float64, 4)
	if r.ID() == 0 {
		b.Last = Plan(own, gcost, r.Size(), b.s.RecordLen()*8, r.Clock().Model(), b.cfg)
		if b.Last.Rebalance {
			wire[0] = 1
		}
		for i, o := range b.Last.Owner {
			wire[1+i] = int64(o)
		}
		stats[0] = b.Last.ImbalanceBefore
		stats[1] = b.Last.ImbalanceAfter
		stats[2] = b.Last.GainPerStep
		stats[3] = b.Last.MigCost
	}
	wire = r.BcastInts(0, wire)
	stats = r.Bcast(0, stats)
	r.SetSite("")
	if r.ID() != 0 {
		b.Last = Decision{
			Rebalance:       wire[0] == 1,
			ImbalanceBefore: stats[0],
			ImbalanceAfter:  stats[1],
			GainPerStep:     stats[2],
			MigCost:         stats[3],
		}
	}
	b.Epochs++
	if b.gBefore != nil {
		b.gBefore.Set(stats[0])
		b.gAfter.Set(stats[1])
	}

	if wire[0] == 0 {
		b.Skips++
		if b.mSkip != nil && r.ID() == 0 {
			b.mSkip.Add(1)
		}
		return
	}

	// Migrate: rebuild ownership from the broadcast owner map, move the
	// element records (state + cost), then re-route particles (the
	// cloud's owner() consults the solver's new ownership).
	owner := make([]int, nGlobal)
	for i := range owner {
		owner[i] = int(wire[1+i])
	}
	newOwn, err := mesh.NewOwnership(own.Box(), owner)
	if err != nil {
		panic(fmt.Sprintf("loadbal: broadcast plan invalid: %v", err))
	}
	moved := 0
	for gid, o := range owner {
		if own.Owner(int64(gid)) != o {
			moved++
		}
	}
	movedE, movedB := b.s.Remap(newOwn)
	if b.cloud != nil {
		b.cloud.Migrate()
	}
	b.Rebalances++
	b.MovedElems += moved
	b.MovedBytes += int64(moved) * int64(b.s.RecordLen()) * 8
	if b.mElems != nil {
		b.mElems.Add(int64(movedE))
		b.mBytes.Add(movedB)
		if r.ID() == 0 {
			b.mReb.Add(1)
		}
	}
}

// foldCosts folds one per-element cost sample (seconds per step) into
// the solver's cost EWMA. The first sample primes it directly.
func (b *Balancer) foldCosts(sample []float64) {
	s := b.s
	if !s.CostPrimed {
		copy(s.Cost, sample)
		s.CostPrimed = true
		return
	}
	a := b.cfg.EWMA
	for e, v := range sample {
		s.Cost[e] = a*v + (1-a)*s.Cost[e]
	}
}
