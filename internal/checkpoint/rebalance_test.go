package checkpoint

import (
	"math"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/loadbal"
	"repro/internal/netmodel"
	"repro/internal/solver"
)

// rebalCfg is the skewed-load setup shared by the rebalance round-trip
// test: 8 ranks, one octant's elements 4x the cost, so the balancer
// fires within a couple of epochs.
func rebalCfg(t *testing.T) solver.Config {
	t.Helper()
	const np = 8
	cfg := solver.DefaultConfig(np, 5, 2)
	box, err := cfg.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	hot := make(map[int64]float64)
	for _, gid := range box.Partition(3).GIDs() {
		hot[gid] = 4
	}
	cfg.HotElems = hot
	return cfg
}

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

// TestRestoreAcrossRebalance checkpoints a run after a dynamic rebalance
// has moved elements off the uniform split, rebuilds the recorded
// ownership from the files alone, restores into solvers constructed on
// that partition, continues the run, and requires the final state to be
// bit-identical to an uninterrupted run.
func TestRestoreAcrossRebalance(t *testing.T) {
	const np, preSteps, postSteps = 8, 6, 3
	cfg := rebalCfg(t)
	dir := t.TempDir()
	var mu sync.Mutex

	// Uninterrupted reference: physics is partition-independent, so a
	// plain run of preSteps+postSteps is the ground truth.
	ref := make(map[int64][]float64)
	_, err := comm.Run(np, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		s.SetInitial(solver.GaussianPulse(1, 1, 1, 0.1, 0.5))
		s.Run(preSteps + postSteps)
		stateByGID(s, ref, &mu)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Leg 1: run with the balancer until it has migrated, checkpoint.
	rebalanced := false
	_, err = comm.Run(np, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		s.SetInitial(solver.GaussianPulse(1, 1, 1, 0.1, 0.5))
		b := loadbal.New(s, nil, nil, loadbal.Config{Every: 2})
		s.RunWith(preSteps, b.AfterStep)
		if r.ID() == 0 && b.Rebalances > 0 {
			rebalanced = true
		}
		return Dir(dir).Write("reb", s, preSteps, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rebalanced {
		t.Fatal("balancer never fired before the checkpoint; test exercises nothing")
	}

	// Rebuild the partition from the files alone: it must differ from
	// the uniform split.
	box, err := cfg.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	own, err := ReadOwnership(dir, "reb", box)
	if err != nil {
		t.Fatal(err)
	}
	if own.IsUniform() {
		t.Fatal("recorded ownership is uniform; rebalance did not reach the checkpoint")
	}

	// Leg 2: restore onto the recorded partition and finish the run.
	got := make(map[int64][]float64)
	cfg2 := cfg
	cfg2.Ownership = own
	_, err = comm.Run(np, cfg2.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
		s, err := solver.New(r, cfg2)
		if err != nil {
			return err
		}
		defer s.Close()
		snap, err := Dir(dir).Read("reb", r.ID())
		if err != nil {
			return err
		}
		if _, _, err := Restore(s, snap); err != nil {
			return err
		}
		s.Run(postSteps)
		stateByGID(s, got, &mu)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(got) != len(ref) {
		t.Fatalf("restored run covered %d elements, reference %d", len(got), len(ref))
	}
	for gid, want := range ref {
		g := got[gid]
		for i, v := range want {
			if math.Float64bits(g[i]) != math.Float64bits(v) {
				t.Fatalf("element %d value %d: restored %x != reference %x",
					gid, i, math.Float64bits(g[i]), math.Float64bits(v))
			}
		}
	}
}

// TestRestoreCarriesCosts: the load balancer's per-element cost
// estimates travel in the element records. A set written after a
// rebalance restores every estimate bit for bit, primed, onto a
// different partition; a set written before the first epoch restores an
// unprimed model.
func TestRestoreCarriesCosts(t *testing.T) {
	const np, steps = 8, 4
	cfg := rebalCfg(t)
	dir := t.TempDir()
	var mu sync.Mutex
	written := make(map[int64]float64)
	_, err := comm.Run(np, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		s.SetInitial(solver.GaussianPulse(1, 1, 1, 0.1, 0.5))
		if err := Dir(dir).Write("unprimed", s, 0, 0); err != nil {
			return err
		}
		b := loadbal.New(s, nil, nil, loadbal.Config{Every: 2})
		s.RunWith(steps, b.AfterStep)
		if b.Rebalances == 0 || !s.CostPrimed {
			t.Errorf("rank %d: %d rebalances, primed %v; the test exercises nothing", r.ID(), b.Rebalances, s.CostPrimed)
		}
		mu.Lock()
		for e, c := range s.Cost {
			written[s.Local.GID(e)] = c
		}
		mu.Unlock()
		return Dir(dir).Write("primed", s, steps, 0)
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, tag := range []string{"unprimed", "primed"} {
		restored := make(map[int64]float64)
		_, err = comm.Run(np, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
			s, err := solver.New(r, cfg) // uniform split
			if err != nil {
				return err
			}
			defer s.Close()
			if _, _, err := RestoreRemapped(s, Dir(dir), tag, np); err != nil {
				return err
			}
			if s.CostPrimed != (tag == "primed") {
				t.Errorf("%s set: rank %d restored CostPrimed=%v", tag, r.ID(), s.CostPrimed)
			}
			mu.Lock()
			for e, c := range s.Cost {
				restored[s.Local.GID(e)] = c
			}
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for gid, c := range restored {
			want := 0.0
			if tag == "primed" {
				want = written[gid]
			}
			if math.Float64bits(c) != math.Float64bits(want) {
				t.Fatalf("%s set: element %d cost %v restored, %v written", tag, gid, c, want)
			}
		}
	}
}

// TestRestoreRejectsWrongPartition: restoring a rebalanced snapshot into
// a solver on the uniform split must fail loudly, not corrupt state.
func TestRestoreRejectsWrongPartition(t *testing.T) {
	const np = 8
	cfg := rebalCfg(t)
	dir := t.TempDir()
	_, err := comm.Run(np, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		s.SetInitial(solver.GaussianPulse(1, 1, 1, 0.1, 0.5))
		b := loadbal.New(s, nil, nil, loadbal.Config{Every: 2})
		s.RunWith(4, b.AfterStep)
		if b.Rebalances == 0 {
			return nil // decision may differ per epoch; the other ranks agree anyway
		}
		return Dir(dir).Write("wrong", s, 4, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = comm.Run(np, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
		s, err := solver.New(r, cfg) // uniform split
		if err != nil {
			return err
		}
		defer s.Close()
		snap, err := Dir(dir).Read("wrong", r.ID())
		if err != nil {
			return nil // this rank moved nothing and kept its uniform set
		}
		if _, _, rerr := Restore(s, snap); rerr == nil && !ownershipMatchesUniform(snap, s) {
			t.Errorf("rank %d: restore accepted a mismatched partition", r.ID())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// ownershipMatchesUniform reports whether the snapshot's gid list equals
// the solver's (uniform) local element set — the only case Restore may
// accept.
func ownershipMatchesUniform(snap *Snapshot, s *solver.Solver) bool {
	gids := s.Local.GIDs()
	if len(snap.GIDs) != len(gids) {
		return false
	}
	for i, g := range gids {
		if snap.GIDs[i] != g {
			return false
		}
	}
	return true
}
