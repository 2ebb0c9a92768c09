package serve

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/diag"
	"repro/internal/fault"
	"repro/internal/gs"
	"repro/internal/solver"
)

// segment is the outcome of one dispatch: a job runs in segments
// separated by suspensions, each segment one fault.Runner run on one
// slot, written by its reporting rank (topo: by every rank).
type segment struct {
	reported bool
	ctl      int64         // ctlSuspend: the store holds the images of step report.Steps
	report   solver.Report // the step reached, and the final scalars if the budget was spent
	diag     diag.Summary
	topo     []*gs.Topology // extracted on cold runs for the cache
}

// A faulted job's heartbeat and auto-checkpoint periods, in steps, and
// the set a suspend writes into the job's store.
const (
	heartbeatEvery = 1
	ckptEvery      = 10
	suspendTag     = "suspend"
)

// runSegment executes one segment of job j on the given slot: build the
// solver on every rank (reusing cached artifacts), restore the suspend
// image or set the initial condition, then run fault.Runner until the
// budget is spent or the ranks collectively observe a suspend/cancel
// flag in its step hook. Runs on its own goroutine; rejoins the
// scheduler through segmentExit.
func (s *Server) runSegment(j *Job, slot int) {
	defer s.wg.Done()
	spec := j.Spec.withDefaults()
	cfg, model := j.Spec.solverConfig()
	key := j.Spec.cacheKey()

	art, warm := s.cache.acquire(key)
	cfg.Ref = art.ref
	if warm {
		cfg.GSTopo = art.topo
	}
	jobReg := s.metrics.WithPrefix(fmt.Sprintf("job%d_", j.ID))
	cfg.Metrics = jobReg

	opts := cfg.CommOptions(model)
	fcfg := fault.Config{Spec: spec.Faults, Store: j.ckpt, HeartbeatEvery: heartbeatEvery, Metrics: jobReg}
	if spec.Faults != nil {
		opts.Faults = fault.NewInjector(spec.Faults, spec.Ranks, jobReg)
		fcfg.CkptEvery = ckptEvery
	}
	startStep := j.resumeStep
	firstSegment := startStep == 0
	if firstSegment {
		j.mu.Lock()
		j.cacheHit = warm
		j.mu.Unlock()
	}
	seg := &segment{}
	if !warm {
		seg.topo = make([]*gs.Topology, spec.Ranks)
	}
	segStart := time.Now()

	stats, runErr := comm.Run(spec.Ranks, opts, func(r *comm.Rank) error {
		sv, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		if firstSegment {
			sv.SetInitial(solver.GaussianPulse(
				float64(cfg.ElemGrid[0])/2, float64(cfg.ElemGrid[1])/2, float64(cfg.ElemGrid[2])/2,
				0.1, 0.5))
			if r.ID() == 0 {
				j.mu.Lock()
				j.setupS = time.Since(segStart).Seconds()
				j.mu.Unlock()
			}
		} else {
			_, tm, err := checkpoint.RestoreRemapped(sv, j.ckpt, suspendTag, spec.Ranks)
			if err != nil {
				sv.Close()
				return err
			}
			sv.SetSimTime(tm)
		}

		ctl := ctlNone
		fc := fcfg
		fc.Hook = func(step int, dt float64, sv *solver.Solver) bool {
			if sv.Rank.ID() == 0 {
				ev := StepEvent{Step: step, Dt: dt, SimTime: sv.SimTime(), VT: sv.Rank.Clock().Now()}
				if ttfs := j.appendStep(ev); ttfs > 0 {
					s.hTTFS.Observe(ttfs)
				}
			}
			// A collective max: every rank takes the same exit at the same
			// step; individual flag reads would let ranks part ways.
			ctl = sv.Rank.AllreduceInts(comm.OpMax, []int64{j.ctl.Load()})[0]
			return ctl != ctlNone
		}
		rn, err := fault.NewRunner(sv, fc)
		if err != nil {
			sv.Close()
			return err
		}
		defer rn.Close()
		rep, err := rn.Run(startStep, spec.Steps, nil)
		if err != nil {
			return err
		}
		sv = rn.Solver()
		var d diag.Summary
		switch {
		case ctl == ctlSuspend && rep.Steps < spec.Steps:
			if err := j.ckpt.Write(suspendTag, sv, int64(rep.Steps), sv.SimTime()); err != nil {
				return err
			}
		case ctl != ctlCancel: // budget spent: the collective finish
			ctl, d = ctlNone, diag.Compute(sv)
		}
		// After a recovery the runner's solver lives on the survivors,
		// and its rank 0 — the lowest survivor — reports.
		if sv.Rank.ID() == 0 {
			seg.reported, seg.ctl, seg.report, seg.diag = true, ctl, rep, d
		}
		if !warm {
			seg.topo[r.ID()] = sv.GS().Topology()
		}
		return nil
	})

	var makespan float64
	if stats != nil {
		makespan = stats.MaxVirtualTime()
	}
	// Every rank of a run with no error and no kill filled its entry; a
	// run with a kill recovered onto the survivors' partition, whose
	// topologies are not the cache key's.
	if runErr == nil && len(stats.Killed) == 0 {
		s.cache.donate(key, seg.topo)
	}
	s.segmentExit(j, slot, spec, seg, runErr, makespan, time.Since(segStart).Seconds())
}

// segmentExit rejoins the scheduler: free the slot, charge the tenant's
// fair share, transition the job, and dispatch whatever the freed slot
// (or a requeued suspension) unblocks.
func (s *Server) segmentExit(j *Job, slot int, spec JobSpec, seg *segment, runErr error, makespan, wall float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.running, j.ID)
	s.freeSlots = append(s.freeSlots, slot)
	s.usage[spec.Tenant] += wall * float64(spec.Ranks)

	j.mu.Lock()
	j.makespan += makespan
	j.mu.Unlock()

	switch {
	case runErr != nil:
		s.endLocked(j, StateFailed, nil, runErr)
	case seg.ctl == ctlCancel || j.cancel.Load():
		s.endLocked(j, StateCanceled, nil, nil)
	case !seg.reported:
		// A run that reported no outcome and no error (every rank
		// killed, say) must not hang the job.
		s.endLocked(j, StateFailed, nil, fmt.Errorf("serve: job %d segment ended with no outcome", j.ID))
	case seg.ctl == ctlSuspend:
		// Preempted: the store holds the images; rejoin the queue.
		j.resumeStep = seg.report.Steps
		lat := time.Since(j.preemptReq).Seconds()
		j.mu.Lock()
		j.preemptions++
		j.preemptLat = lat
		j.mu.Unlock()
		s.hPreempt.Observe(lat)
		s.metrics.Counter("serve_preemptions").Add(1)
		j.setState(StateSuspended)
		s.queue = append(s.queue, j)
	default:
		s.endLocked(j, StateDone, resultFrom(seg.report, seg.diag, j.makespan, spec.GS), nil)
	}
	s.scheduleLocked()
}
