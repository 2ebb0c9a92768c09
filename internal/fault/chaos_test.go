package fault

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/netmodel"
	"repro/internal/solver"
)

// stateByGID captures every local element's conserved state keyed by
// global id, so runs on different partitions compare element-for-element.
func stateByGID(s *solver.Solver, into map[int64][]float64, mu *sync.Mutex) {
	n3 := s.Cfg.N * s.Cfg.N * s.Cfg.N
	mu.Lock()
	defer mu.Unlock()
	for e := 0; e < s.Local.Nel; e++ {
		flat := make([]float64, 0, solver.NumFields*n3)
		for c := 0; c < solver.NumFields; c++ {
			flat = append(flat, s.U[c][e*n3:(e+1)*n3]...)
		}
		into[s.Local.GID(e)] = flat
	}
}

func compareStates(t *testing.T, got, want map[int64][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("state covers %d elements, want %d", len(got), len(want))
	}
	for gid, w := range want {
		g, ok := got[gid]
		if !ok {
			t.Fatalf("element %d missing from recovered state", gid)
		}
		for j := range w {
			if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
				t.Fatalf("element %d value %d: %v != %v (not bit-identical)", gid, j, g[j], w[j])
			}
		}
	}
}

// TestMessageFaultsPreserveResults: with drop/corrupt/delay injection at
// aggressive rates but no crashes, an entire multi-step solve is
// bit-identical to the fault-free run, every corruption is caught by CRC
// (Detected == Corrupts exactly — zero silent corruptions), and the comm
// layer's counter agrees with the injector's.
func TestMessageFaultsPreserveResults(t *testing.T) {
	const np, steps = 4, 8
	cfg := solver.DefaultConfig(np, 5, 2)
	var mu sync.Mutex

	run := func(spec *Spec, into map[int64][]float64) (*comm.Stats, *Injector) {
		t.Helper()
		var inj *Injector
		opts := cfg.CommOptions(netmodel.QDR)
		if spec != nil {
			inj = NewInjector(spec, np, nil)
			opts.Faults = inj
		}
		stats, err := comm.Run(np, opts, func(r *comm.Rank) error {
			s, err := solver.New(r, cfg)
			if err != nil {
				return err
			}
			s.SetInitial(solver.GaussianPulse(1, 1, 1, 0.1, 0.5))
			if spec == nil {
				for i := 0; i < steps; i++ {
					s.AdvanceStep(i)
				}
				defer s.Close()
				stateByGID(s, into, &mu)
				return nil
			}
			rn, err := NewRunner(s, Config{Spec: spec})
			if err != nil {
				return err
			}
			defer rn.Close()
			if _, err := rn.Run(0, steps, nil); err != nil {
				return err
			}
			stateByGID(rn.Solver(), into, &mu)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats, inj
	}

	ref := make(map[int64][]float64)
	run(nil, ref)

	spec := &Spec{
		Seed: 12345,
		Messages: MsgFaults{
			Drop: 0.05, Corrupt: 0.1, Delay: 0.05,
			DelaySeconds: 2e-6, RetransmitSeconds: 1e-5,
		},
	}
	got := make(map[int64][]float64)
	stats, inj := run(spec, got)

	compareStates(t, got, ref)
	c := inj.Total()
	if c.Corrupts == 0 || c.Drops == 0 || c.Delays == 0 {
		t.Fatalf("injection too quiet: %+v", c)
	}
	// Crash-free: every corrupted copy is received, so every one must be
	// detected — exactly, or a corruption was silently absorbed.
	if c.Detected != c.Corrupts {
		t.Fatalf("detected %d of %d corruptions — silent corruption", c.Detected, c.Corrupts)
	}
	if stats.CRCDetected != c.Detected {
		t.Fatalf("comm counted %d CRC rejections, injector %d", stats.CRCDetected, c.Detected)
	}
	// Every drop and every corruption costs exactly one retransmission.
	if stats.Retransmits != c.Drops+c.Corrupts {
		t.Fatalf("comm counted %d retransmissions, injector %d drops + %d corruptions",
			stats.Retransmits, c.Drops, c.Corrupts)
	}
}

// chaosScenario runs the headline acceptance scenario for one seed:
// np=4, message faults on, rank 2 crashes at step 6, auto-checkpoints
// every 3 steps, 10 steps total. Survivors must detect the death at step
// 6, shrink, re-home rank 2's elements, restore the step-3 checkpoint
// and finish — and the final state must be bit-identical to a fault-free
// 3-rank run restored from the same checkpoint onto the same partition.
// With overlap set, the crashing run uses the split-phase exchange (the
// reference run stays blocking), so recovery must also survive the
// post-Shrink rebuild of the interior/boundary sets and Pending handles.
func chaosScenario(t *testing.T, seed int64, overlap bool) {
	const np, steps, crashStep, ckptEvery = 4, 10, 6, 3
	cfg := solver.DefaultConfig(np, 5, 2)
	cfg.Overlap = overlap
	dir := t.TempDir()
	spec := &Spec{
		Seed:    seed,
		Crashes: []CrashSpec{{Rank: 2, Step: crashStep}},
		Messages: MsgFaults{
			Drop: 0.02, Corrupt: 0.05, Delay: 0.02,
			DelaySeconds: 2e-6, RetransmitSeconds: 1e-5,
		},
	}
	inj := NewInjector(spec, np, nil)
	opts := cfg.CommOptions(netmodel.QDR)
	opts.Faults = inj

	var mu sync.Mutex
	got := make(map[int64][]float64)
	recoveries := make(map[int]int) // world rank -> recoveries
	deadSeen := make(map[int][]int) // world rank -> dead ranks observed
	stats, err := comm.Run(np, opts, func(r *comm.Rank) error {
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		s.SetInitial(solver.GaussianPulse(1, 1, 1, 0.1, 0.5))
		rn, err := NewRunner(s, Config{
			Spec: spec, Store: checkpoint.Dir(dir), CkptEvery: ckptEvery, HeartbeatEvery: 1,
		})
		if err != nil {
			return err
		}
		defer rn.Close()
		if _, err := rn.Run(0, steps, nil); err != nil {
			return err
		}
		stateByGID(rn.Solver(), got, &mu)
		mu.Lock()
		recoveries[rn.Solver().Rank.WorldID()] = rn.Recoveries
		deadSeen[rn.Solver().Rank.WorldID()] = rn.DeadRanks
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Killed) != 1 || stats.Killed[0] != 2 {
		t.Fatalf("Stats.Killed = %v, want [2]", stats.Killed)
	}
	for _, w := range []int{0, 1, 3} {
		if recoveries[w] != 1 {
			t.Fatalf("survivor %d ran %d recoveries, want 1", w, recoveries[w])
		}
		if len(deadSeen[w]) != 1 || deadSeen[w][0] != 2 {
			t.Fatalf("survivor %d observed deaths %v, want [2]", w, deadSeen[w])
		}
	}
	if c := inj.Total(); c.Detected > c.Corrupts {
		t.Fatalf("detected %d > corrupted %d", c.Detected, c.Corrupts)
	}

	// Fault-free ground truth: a 3-rank run on the survivor partition,
	// restored from the same auto-checkpoint recovery rolled back to,
	// advanced over the same remaining steps.
	box, err := cfg.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	rehomed, err := Rehome(box.UniformOwnership(), []int{0, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Ownership = rehomed
	cfg2.Overlap = false // ground truth stays on the blocking exchange
	ref := make(map[int64][]float64)
	// No Cartesian grid: like the shrunken communicator recovery runs on,
	// the reference communicator is plain (the ProcGrid no longer tiles
	// the rank count; only the Ownership describes the partition).
	_, err = comm.Run(np-1, comm.Options{Model: netmodel.QDR}, func(r *comm.Rank) error {
		s, err := solver.New(r, cfg2)
		if err != nil {
			return err
		}
		defer s.Close()
		step, simTime, err := checkpoint.RestoreRemapped(s, checkpoint.Dir(dir), ckptTag(crashStep-ckptEvery), np)
		if err != nil {
			return err
		}
		if step != crashStep-ckptEvery {
			return fmt.Errorf("checkpoint records step %d, want %d", step, crashStep-ckptEvery)
		}
		s.SetSimTime(simTime)
		for i := int(step); i < steps; i++ {
			s.AdvanceStep(i)
		}
		stateByGID(s, ref, &mu)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	compareStates(t, got, ref)
}

// TestChaosRecoveryAcrossSeeds is the acceptance criterion: the full
// crash-and-recover scenario passes deterministically for 5 distinct
// fault seeds.
func TestChaosRecoveryAcrossSeeds(t *testing.T) {
	for _, seed := range []int64{101, 202, 303, 404, 505} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			chaosScenario(t, seed, false)
		})
	}
}

// TestStallPricesVirtualTime: a scheduled transient stall shows up in the
// stalled rank's modeled clock without changing results.
func TestStallPricesVirtualTime(t *testing.T) {
	const np, steps = 2, 4
	cfg := solver.DefaultConfig(np, 5, 2)
	run := func(spec *Spec) (vt float64, state map[int64][]float64) {
		t.Helper()
		state = make(map[int64][]float64)
		var mu sync.Mutex
		_, err := comm.Run(np, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
			s, err := solver.New(r, cfg)
			if err != nil {
				return err
			}
			s.SetInitial(solver.GaussianPulse(1, 1, 1, 0.1, 0.5))
			rn, err := NewRunner(s, Config{Spec: spec})
			if err != nil {
				return err
			}
			defer rn.Close()
			if _, err := rn.Run(0, steps, nil); err != nil {
				return err
			}
			if r.ID() == 0 {
				vt = r.Clock().Now()
			}
			stateByGID(rn.Solver(), state, &mu)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return vt, state
	}
	clean, refState := run(&Spec{})
	stalled, gotState := run(&Spec{Stalls: []StallSpec{{Rank: 1, Step: 2, Seconds: 0.05}}})
	// Rank 0 synchronizes with rank 1 every step (heartbeats, reductions),
	// so rank 1's 50ms stall must show up in rank 0's modeled time too —
	// minus whatever waiting-for-rank-1 slack the clean run already had.
	if stalled-clean < 0.049 {
		t.Fatalf("stall added %.9f modeled seconds to the peer, want ~0.05", stalled-clean)
	}
	compareStates(t, gotState, refState)
}

// TestChaosCkptOffHeartbeat: with an auto-checkpoint period that is not
// a multiple of the heartbeat period, recovery resumes at a checkpoint
// step with no heartbeat round. Rewriting the restored set there, under
// the shrunken communicator's rank ids, would hand slower survivors
// another partition's images mid-restore. Under both stores every
// repetition must recover and finish bit-identical to the fault-free run.
func TestChaosCkptOffHeartbeat(t *testing.T) {
	const np, steps, reps = 4, 8, 5
	cfg := solver.DefaultConfig(np, 4, 2)
	run := func(t *testing.T, spec *Spec, store checkpoint.Store) map[int64][]float64 {
		t.Helper()
		var mu sync.Mutex
		state := make(map[int64][]float64)
		_, err := comm.Run(np, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
			s, err := solver.New(r, cfg)
			if err != nil {
				return err
			}
			s.SetInitial(solver.GaussianPulse(1, 1, 1, 0.1, 0.5))
			rn, err := NewRunner(s, Config{Spec: spec, Store: store, CkptEvery: 3, HeartbeatEvery: 2})
			if err != nil {
				s.Close()
				return err
			}
			defer rn.Close()
			if _, err := rn.Run(0, steps, nil); err != nil {
				return err
			}
			stateByGID(rn.Solver(), state, &mu)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return state
	}
	ref := run(t, nil, nil)
	spec := &Spec{Seed: 1, Crashes: []CrashSpec{{Rank: 1, Step: 4}}}
	for _, tc := range []struct {
		name  string
		store func() checkpoint.Store
	}{
		{"dir", func() checkpoint.Store { return checkpoint.Dir(t.TempDir()) }},
		{"mem", func() checkpoint.Store { return new(checkpoint.Mem) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < reps; i++ {
				compareStates(t, run(t, spec, tc.store()), ref)
			}
		})
	}
}
