package checkpoint

import (
	"math"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/netmodel"
	"repro/internal/solver"
)

// TestRestoreRemappedOntoFewerRanks writes a 4-rank checkpoint mid-run,
// restores it onto 2 ranks under an ownership that re-homes everything
// onto those ranks, and requires the continued run's final state to be
// bit-identical to the uninterrupted 4-rank run — restore across a rank
// count change must be exact.
func TestRestoreRemappedOntoFewerRanks(t *testing.T) {
	const np, preSteps, postSteps = 4, 3, 3
	cfg := solver.DefaultConfig(np, 5, 2)
	dir := t.TempDir()
	var mu sync.Mutex

	// Uninterrupted reference plus the checkpoint files.
	ref := make(map[int64][]float64)
	var simAtCkpt float64
	_, err := comm.Run(np, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		s.SetInitial(solver.GaussianPulse(1, 1, 1, 0.1, 0.5))
		for i := 0; i < preSteps; i++ {
			s.AdvanceStep(i)
		}
		if r.ID() == 0 {
			simAtCkpt = s.SimTime()
		}
		if err := Dir(dir).Write("remap", s, preSteps, s.SimTime()); err != nil {
			return err
		}
		for i := preSteps; i < preSteps+postSteps; i++ {
			s.AdvanceStep(i)
		}
		stateByGID(s, ref, &mu)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Fold the 4-rank partition onto 2 ranks: rank r's elements go to
	// rank r mod 2.
	box, err := cfg.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	uniform := box.UniformOwnership()
	owner := make([]int, box.TotalElems())
	for gid := range owner {
		owner[gid] = uniform.Owner(int64(gid)) % 2
	}
	folded, err := mesh.NewOwnership(box, owner)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Ownership = folded

	got := make(map[int64][]float64)
	_, err = comm.Run(2, comm.Options{Model: netmodel.QDR}, func(r *comm.Rank) error {
		s, err := solver.New(r, cfg2)
		if err != nil {
			return err
		}
		defer s.Close()
		step, simTime, err := RestoreRemapped(s, Dir(dir), "remap", np)
		if err != nil {
			return err
		}
		if step != preSteps {
			t.Errorf("restored step %d, want %d", step, preSteps)
		}
		if r.ID() == 0 && simTime != simAtCkpt {
			t.Errorf("restored sim time %v, want %v", simTime, simAtCkpt)
		}
		s.SetSimTime(simTime)
		for i := preSteps; i < preSteps+postSteps; i++ {
			s.AdvanceStep(i)
		}
		stateByGID(s, got, &mu)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) {
		t.Fatalf("remapped state covers %d elements, want %d", len(got), len(ref))
	}
	for gid, w := range ref {
		g := got[gid]
		for j := range w {
			if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
				t.Fatalf("element %d value %d differs after remapped restore", gid, j)
			}
		}
	}
}

// TestRestoreRemappedMissingFile: an incomplete checkpoint set fails
// with an error, never a partial silent restore.
func TestRestoreRemappedMissingFile(t *testing.T) {
	cfg := solver.DefaultConfig(1, 4, 2)
	dir := t.TempDir()
	_, err := comm.RunSimple(1, func(r *comm.Rank) error {
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		s.SetInitial(solver.GaussianPulse(1, 1, 1, 0.1, 0.5))
		if err := Dir(dir).Write("part", s, 1, 0); err != nil {
			return err
		}
		// Claim there are two files; only rank 0's exists.
		if _, _, err := RestoreRemapped(s, Dir(dir), "part", 2); err == nil {
			t.Error("incomplete checkpoint set restored without error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
