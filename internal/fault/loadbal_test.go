package fault

import (
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/loadbal"
	"repro/internal/netmodel"
	"repro/internal/solver"
)

// loadbalCrashCfg is 8 ranks of 27 elements at N=4: fine enough grained
// that the balancer can still even out the survivor partition a crash
// leaves.
func loadbalCrashCfg() solver.Config { return solver.DefaultConfig(8, 4, 3) }

// loadbalCrash runs loadbalCrashCfg with rank 3's elements 4x the cost
// under the load balancer (an epoch every 2 steps) while rank 5 crashes
// at step 6; auto-checkpoints every 3 steps roll the survivors back to
// step 3. It returns the final state by gid, the per-rank virtual clocks, and the
// survivors' rebalance counts before and after the recovery.
func loadbalCrash(t *testing.T) (state map[int64][]float64, clocks []float64, before, after int) {
	t.Helper()
	const np, steps, crashStep, ckptEvery = 8, 10, 6, 3
	cfg := loadbalCrashCfg()
	box, err := cfg.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	cfg.HotElems = make(map[int64]float64)
	for _, gid := range box.Partition(3).GIDs() {
		cfg.HotElems[gid] = 4
	}
	spec := &Spec{Seed: 7, Crashes: []CrashSpec{{Rank: 5, Step: crashStep}}}
	opts := cfg.CommOptions(netmodel.QDR)
	opts.Faults = NewInjector(spec, np, nil)
	dir := t.TempDir()

	var mu sync.Mutex
	state = make(map[int64][]float64)
	before, after = math.MaxInt, math.MaxInt
	stats, err := comm.Run(np, opts, func(r *comm.Rank) error {
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		s.SetInitial(solver.GaussianPulse(1, 1, 1, 0.1, 0.5))
		b := loadbal.New(s, nil, nil, loadbal.Config{Every: 2})
		rn, err := NewRunner(s, Config{Spec: spec, Store: checkpoint.Dir(dir), CkptEvery: ckptEvery})
		if err != nil {
			return err
		}
		defer rn.Close()
		if _, err := rn.Run(0, steps, b); err != nil {
			return err
		}
		if rn.Recoveries != 1 {
			return fmt.Errorf("rank %d ran %d recoveries, want 1", r.ID(), rn.Recoveries)
		}
		// The rebuilt solver's recorder starts at the recovery, so its
		// migrations are the ones after it.
		atRecovery := b.Rebalances
		for _, reg := range rn.Solver().Rec.Flat() {
			if reg.Name == "rebalance_migrate" {
				atRecovery -= int(reg.Calls)
			}
		}
		stateByGID(rn.Solver(), state, &mu)
		mu.Lock()
		before = min(before, atRecovery)
		after = min(after, b.Rebalances-atRecovery)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Killed) != 1 || stats.Killed[0] != 5 {
		t.Fatalf("Stats.Killed = %v, want [5]", stats.Killed)
	}
	return state, stats.VirtualTimes, before, after
}

// TestLoadbalCrashRecovery runs the load balancer through a crash: the
// balancer rebalances before the crash, its cost estimates come back
// from the checkpoint's element records, and it rebalances the survivor
// partition after the recovery. The final state must be bit-identical to
// a plain fault-free run, and the whole run must be deterministic down
// to every rank's virtual clock.
func TestLoadbalCrashRecovery(t *testing.T) {
	const np, steps = 8, 10
	cfg := loadbalCrashCfg()
	ref := make(map[int64][]float64)
	var mu sync.Mutex
	if _, err := comm.Run(np, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		s.SetInitial(solver.GaussianPulse(1, 1, 1, 0.1, 0.5))
		s.Run(steps)
		stateByGID(s, ref, &mu)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	got, clocks, before, after := loadbalCrash(t)
	if before < 1 || after < 1 {
		t.Fatalf("every survivor must rebalance before the crash and after the recovery; fewest were %d and %d", before, after)
	}
	compareStates(t, got, ref)

	_, again, _, _ := loadbalCrash(t)
	for r := range clocks {
		if math.Float64bits(clocks[r]) != math.Float64bits(again[r]) {
			t.Fatalf("rank %d virtual clock %v, then %v: the run is not deterministic", r, clocks[r], again[r])
		}
	}

	src, err := os.ReadFile("../../cmd/cmtbone/main.go")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(src), "-faults cannot be combined with -loadbal") {
		t.Fatal("cmd/cmtbone still bans -faults with -loadbal")
	}
}
