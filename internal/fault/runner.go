package fault

import (
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/loadbal"
	"repro/internal/obs"
	"repro/internal/solver"
)

// Heartbeats use a tag space above the collectives' so they can never
// match application or collective traffic; the step number keeps rounds
// distinct within one communicator's lifetime (every recovery moves to a
// fresh communicator, so re-executed steps cannot collide with stale
// rounds).
const heartbeatTagBase = 1 << 27

// Config drives a Runner.
type Config struct {
	// Spec is the fault scenario (it also seeds the Injector installed
	// on the communicator). Nil runs no stalls, heartbeats or
	// auto-checkpoints: the plain step loop of solver.Solver.RunWith.
	Spec *Spec
	// Store/CkptEvery enable periodic auto-checkpoints: every CkptEvery
	// steps (including step 0) each rank writes its image of the set
	// auto-NNNNNN into Store. Required whenever the scenario contains
	// crashes — recovery rolls back to the latest complete set.
	Store     checkpoint.Store
	CkptEvery int
	// HeartbeatEvery is the failure-detection period in steps (default
	// 1). Crash steps must be multiples of it so detection happens in
	// the crash step.
	HeartbeatEvery int
	// Hook, when non-nil, runs after every timestep with the step, its dt
	// and the current solver; returning true ends Run at that boundary.
	// Every rank must return the same answer.
	Hook func(step int, dt float64, s *solver.Solver) (stop bool)
	// Metrics, when non-nil, receives fault_* counters.
	Metrics *obs.Registry
}

// Runner runs the step loop: it advances the solver and, when
// given one, the load balancer, under a fault scenario. Per step, in
// order — scheduled stalls, a heartbeat round (in which scheduled
// crashes fire) with collective recovery when it detects deaths, the
// periodic auto-checkpoint, then the timestep itself and the hook. The
// ordering is load-bearing: recovery runs before the checkpoint phase so
// a crash step can never contribute a partial checkpoint set, and a
// crashing rank dies after hearing every peer's ping but before sending
// its own, so survivors detect it in the same step deterministically and
// none of them is still inside a collective (a step hook's, say) that
// the crashing rank had already left.
//
// Recovery is rollback recovery in the ULFM style: survivors shrink the
// communicator (comm.Rank.Shrink), re-home the dead ranks' elements onto
// themselves (Rehome, verified identical across survivors by a checksum
// allreduce), rebuild the solver over the new ownership, and restore the
// latest auto-checkpoint from the store (checkpoint.RestoreRemapped),
// which brings back every element record: fields, sources and the load
// balancer's cost estimates. Because the physics is partition-independent,
// the recovered run is bit-identical to a fault-free run.
type Runner struct {
	cfg Config
	s   *solver.Solver

	lastCkptStep  int
	lastCkptFiles int

	// Recoveries counts completed recovery protocols on this rank.
	Recoveries int
	// DeadRanks lists world ranks this rank has seen die, in detection
	// order.
	DeadRanks []int
}

// NewRunner validates the scenario against the solver's communicator
// (which must still be the world communicator) and returns a runner.
func NewRunner(s *solver.Solver, cfg Config) (*Runner, error) {
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 1
	}
	if sp := cfg.Spec; sp != nil {
		if err := sp.CheckRun(s.Rank.Size(), cfg.HeartbeatEvery); err != nil {
			return nil, err
		}
		if len(sp.Crashes) > 0 && (cfg.Store == nil || cfg.CkptEvery <= 0) {
			return nil, fmt.Errorf("fault: crash scenarios need a checkpoint store and CkptEvery > 0 to recover from")
		}
	}
	return &Runner{cfg: cfg, s: s}, nil
}

// Solver returns the current solver — after a recovery this is a new
// instance on the shrunken communicator, so callers must not cache the
// one they constructed the runner with.
func (rn *Runner) Solver() *solver.Solver { return rn.s }

// Close releases the current solver's resources.
func (rn *Runner) Close() { rn.s.Close() }

func ckptTag(step int) string { return fmt.Sprintf("auto-%06d", step) }

// Run advances the solver from step first up to steps under the fault
// scenario and returns the report of the step it reached: steps, or
// where the hook stopped it. b, when non-nil, is the load balancer: its
// AfterStep runs at the end of every timestep, and after a recovery the
// runner points it at the rebuilt solver. With a nil Spec, hook and b,
// Run(0, steps, nil) is solver.Solver.RunWith(steps, nil). On ranks
// scheduled to crash it never returns: the rank unwinds via
// comm.Rank.Kill and comm.Run records it in Stats.Killed.
// On any abnormal exit — the kill panic, an unexpected panic, or an
// error return — the shared step-metrics stream is synced first, so
// records sealed before the failure survive in the output file.
func (rn *Runner) Run(first, steps int, b *loadbal.Balancer) (rep solver.Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			rn.s.Cfg.Steps.Sync()
			panic(p)
		}
		if err != nil {
			rn.s.Cfg.Steps.Sync()
		}
	}()
	var dt float64
	i := first
	for i < steps {
		if rn.cfg.Spec != nil {
			resume, err := rn.beforeStep(i)
			if err != nil {
				return solver.Report{}, err
			}
			if resume >= 0 {
				if b != nil {
					b.Follow(rn.s)
				}
				i = resume
				continue
			}
		}
		dt = rn.s.AdvanceStep(i)
		if b != nil {
			b.AfterStep(i)
		}
		i++
		if rn.cfg.Hook != nil && rn.cfg.Hook(i-1, dt, rn.s) {
			break
		}
	}
	return rn.s.FinishReport(i, dt), nil
}

// beforeStep runs the scenario's phases ahead of timestep i: stalls, the
// heartbeat round (where scheduled crashes fire) with recovery when it
// finds deaths, then the periodic auto-checkpoint. After a recovery it
// returns the restored step to resume from; otherwise -1.
func (rn *Runner) beforeStep(i int) (resume int, err error) {
	rn.stall(i)
	if rn.s.Rank.Size() == 1 && rn.crashes(rn.s.Rank.WorldID(), i) {
		rn.s.Rank.Kill()
	}
	if i%rn.cfg.HeartbeatEvery == 0 && rn.s.Rank.Size() > 1 {
		dead, err := rn.heartbeat(i)
		if err != nil {
			return -1, err
		}
		if len(dead) > 0 {
			if err := rn.recoverFrom(dead); err != nil {
				return -1, err
			}
			return rn.lastCkptStep, nil
		}
	}
	// Slower survivors may still be reading the set a recovery restored.
	restored := rn.lastCkptFiles > 0 && i == rn.lastCkptStep
	if ck := rn.cfg.CkptEvery; ck > 0 && i%ck == 0 && !restored && rn.cfg.Store != nil {
		if err := rn.writeCheckpoint(i); err != nil {
			return -1, err
		}
	}
	return -1, nil
}

// stall prices any scheduled transient stall for this rank/step straight
// onto the virtual clock, so the slow-rank episode is visible in modeled
// makespan and in every peer's modeled wait.
func (rn *Runner) stall(step int) {
	me := rn.s.Rank.WorldID()
	for _, st := range rn.cfg.Spec.Stalls {
		if st.Rank == me && st.Step == step && st.Seconds > 0 {
			rn.s.Rank.Clock().Advance(st.Seconds)
			rn.cfg.Metrics.Counter("fault_stalls").Add(1)
		}
	}
}

// crashes reports whether world rank w is scheduled to die at this step.
func (rn *Runner) crashes(w, step int) bool {
	for _, c := range rn.cfg.Spec.Crashes {
		if c.Rank == w && c.Step == step {
			return true
		}
	}
	return false
}

// heartbeat runs one all-to-all liveness round and returns the peers
// (current communicator ids) found dead. Detection is event-driven on
// the runtime's dead-rank state rather than a wall-clock timeout: a
// heartbeat receive from a dead peer fails with DeadRankError exactly
// once that peer's pre-crash messages are drained, so every survivor
// computes the same death list at the same step. A rank scheduled to
// crash at this step sends no ping: it waits for the pings of every
// peer not crashing with it and then dies.
func (rn *Runner) heartbeat(step int) ([]int, error) {
	r := rn.s.Rank
	defer rn.s.Rec.Region("heartbeat", obs.CatComm).End()
	r.SetSite("heartbeat")
	defer r.SetSite("")
	tag := heartbeatTagBase + step
	p, me := r.Size(), r.ID()
	crash := rn.crashes(r.WorldID(), step)
	ping := []float64{float64(step)}
	for peer := 0; peer < p && !crash; peer++ {
		if peer != me {
			r.IsendMsg(peer, tag, ping, nil)
		}
	}
	var dead []int
	for peer := 0; peer < p; peer++ {
		if peer == me || crash && rn.crashes(r.WorldIDOf(peer), step) {
			continue
		}
		req := r.Irecv(peer, tag)
		if _, _, err := req.WaitErr(); err != nil {
			var dre comm.DeadRankError
			if !errors.As(err, &dre) {
				return nil, err
			}
			dead = append(dead, peer)
			continue
		}
		req.Free()
	}
	if crash {
		r.Kill()
	}
	rn.cfg.Metrics.Counter("fault_heartbeat_rounds").Add(1)
	return dead, nil
}

// writeCheckpoint writes this rank's auto-checkpoint for the step and
// records the step as the newest complete rollback point. Completeness
// is implied by the collective step structure: no rank can pass the next
// timestep's reductions until every rank has finished writing this set.
func (rn *Runner) writeCheckpoint(step int) error {
	defer rn.s.Rec.Region("auto_checkpoint", obs.CatComm).End()
	if err := rn.cfg.Store.Write(ckptTag(step), rn.s, int64(step), rn.s.SimTime()); err != nil {
		return err
	}
	rn.lastCkptStep = step
	rn.lastCkptFiles = rn.s.Rank.Size()
	rn.cfg.Metrics.Counter("fault_checkpoints").Add(1)
	return nil
}

// recoverFrom is the collective recovery protocol, run by every survivor
// with the same dead list: shrink the communicator over the survivors,
// re-home the dead ranks' elements, verify all survivors computed the
// identical ownership (checksum min/max allreduce), rebuild the solver,
// and roll back to the latest complete auto-checkpoint.
func (rn *Runner) recoverFrom(dead []int) error {
	old := rn.s
	defer old.Rec.Region("recovery", obs.CatComm).End()
	r := old.Rank
	for _, d := range dead {
		rn.DeadRanks = append(rn.DeadRanks, r.WorldIDOf(d))
	}
	deadSet := make(map[int]bool, len(dead))
	for _, d := range dead {
		deadSet[d] = true
	}
	survivors := make([]int, 0, r.Size()-len(dead))
	for id := 0; id < r.Size(); id++ {
		if !deadSet[id] {
			survivors = append(survivors, id)
		}
	}

	sub, err := r.Shrink(survivors)
	if err != nil {
		return fmt.Errorf("fault: recovery shrink: %w", err)
	}
	newOwn, err := Rehome(old.Ownership(), survivors)
	if err != nil {
		return fmt.Errorf("fault: recovery rehome: %w", err)
	}
	// Prove every survivor re-homed identically before restoring state
	// onto the new partition: the checksum of the ownership wire form
	// must be unanimous.
	sub.SetSite("recovery")
	// Rewind the step-metrics stream before the consensus collective:
	// every survivor must enter the allreduce before any exits, so one
	// rank's call here happens-before any replayed step report.
	if sub.ID() == 0 {
		old.Cfg.Steps.Rollback(rn.lastCkptStep, len(survivors))
	}
	sum := float64(crc32.Checksum(newOwn.WireBytes(), crc32.MakeTable(crc32.Castagnoli)))
	lo := sub.Allreduce(comm.OpMin, []float64{sum})[0]
	hi := sub.Allreduce(comm.OpMax, []float64{sum})[0]
	sub.SetSite("")
	if lo != hi {
		return fmt.Errorf("fault: survivors disagree on re-homed ownership (checksums %x..%x)", uint32(lo), uint32(hi))
	}

	cfg := old.Cfg
	cfg.Ownership = newOwn
	cfg.GSTopo = nil // recorded for the starting partition
	old.Close()
	s2, err := solver.New(sub, cfg)
	if err != nil {
		return fmt.Errorf("fault: recovery solver rebuild: %w", err)
	}
	step, simTime, err := checkpoint.RestoreRemapped(s2, rn.cfg.Store, ckptTag(rn.lastCkptStep), rn.lastCkptFiles)
	if err != nil {
		s2.Close()
		return fmt.Errorf("fault: recovery restore: %w", err)
	}
	if step != int64(rn.lastCkptStep) {
		s2.Close()
		return fmt.Errorf("fault: checkpoint %s records step %d, expected %d", ckptTag(rn.lastCkptStep), step, rn.lastCkptStep)
	}
	s2.SetSimTime(simTime)
	rn.s = s2
	rn.Recoveries++
	rn.cfg.Metrics.Counter("fault_recoveries").Add(1)
	rn.cfg.Metrics.Counter("fault_dead_ranks").Add(int64(len(dead)))
	return nil
}
