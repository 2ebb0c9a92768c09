package repro

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/netmodel"
	"repro/internal/solver"
)

// runWithHier runs a small multi-rank solve with collectives either flat
// or hierarchical and returns the physics scalars of the final report.
func runWithHier(t *testing.T, hier bool) (dt, mass, energy, wavespeed float64) {
	t.Helper()
	const np, perNode, steps = 8, 4, 3
	cfg := solver.DefaultConfig(np, 6, 2)
	opts := cfg.CommOptions(netmodel.QDR)
	if hier {
		opts.Hierarchy = comm.BlockHierarchy(np, perNode)
	}
	reps := make([]solver.Report, np)
	_, err := comm.Run(np, opts, func(r *comm.Rank) error {
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		s.SetInitial(solver.GaussianPulse(
			float64(cfg.ElemGrid[0])/2, float64(cfg.ElemGrid[1])/2, float64(cfg.ElemGrid[2])/2,
			0.1, 0.5))
		reps[r.ID()] = s.Run(steps)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The report's scalars come out of collectives, so every rank must
	// hold the same bits — a divergence here would mean the hierarchical
	// tree combined in a different order on different ranks.
	for rank := 1; rank < np; rank++ {
		if reps[rank] != reps[0] {
			t.Fatalf("hier=%v: rank %d report %+v differs from rank 0's %+v",
				hier, rank, reps[rank], reps[0])
		}
	}
	return reps[0].Dt, reps[0].Mass, reps[0].Energy, reps[0].WaveSpeed
}

// TestHierPhysicsInvariance is the hierarchical-collectives contract at
// the solver level: switching the communicator's collectives between
// flat and two-level trees must not change a single bit of the physics —
// timestep, mass, energy, wave speed — because on a power-of-two block
// layout the hierarchical combine order reproduces the flat one exactly.
func TestHierPhysicsInvariance(t *testing.T) {
	dtF, massF, energyF, wsF := runWithHier(t, false)
	dtH, massH, energyH, wsH := runWithHier(t, true)
	for _, c := range []struct {
		name       string
		flat, hier float64
	}{
		{"dt", dtF, dtH},
		{"mass", massF, massH},
		{"energy", energyF, energyH},
		{"wavespeed", wsF, wsH},
	} {
		if math.Float64bits(c.flat) != math.Float64bits(c.hier) {
			t.Errorf("%s: %v flat, %v hier (not bit-identical)", c.name, c.flat, c.hier)
		}
	}
}
