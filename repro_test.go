// End-to-end reproduction gates: each test asserts one of the paper's
// qualitative claims across the full stack (solver + gs + comm + models),
// so a regression anywhere that would break a figure's shape fails here.
package repro

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/gs"
	"repro/internal/mesh"
	"repro/internal/netmodel"
	"repro/internal/solver"
)

// TestFig4DerivativeDominates gates the Figure 4 claim: "the majority of
// application time is spent in derivative calculation". It profiles the
// paper's loop structures: at N=18, outside the generated range,
// Deriv(Optimized) runs the hand-written fusion + unroll-by-four loops.
func TestFig4DerivativeDominates(t *testing.T) {
	if raceEnabled {
		t.Skip("profile-share assertions are meaningless under the race detector")
	}
	_, err := comm.RunSimple(1, func(r *comm.Rank) error {
		cfg := solver.DefaultConfig(1, 18, 2)
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		s.SetInitial(solver.GaussianPulse(1, 1, 1, 0.1, 0.5))
		s.Run(3)
		self := map[string]float64{}
		total := 0.0
		for _, reg := range s.Rec.Flat() {
			self[reg.Name] += reg.Self
			total += reg.Self
		}
		deriv := self["ax_deriv_dudr"] + self["ax_deriv_duds"] + self["ax_deriv_dudt"]
		if deriv < 0.35*total {
			t.Errorf("derivative kernel is %.1f%% of self time, want the dominant share",
				100*deriv/total)
		}
		// It must beat every other single region.
		for name, v := range self {
			switch name {
			case "ax_deriv_dudr", "ax_deriv_duds", "ax_deriv_dudt":
				continue
			}
			if v > deriv {
				t.Errorf("region %s (%.3fs) outweighs the derivative kernel (%.3fs)", name, v, deriv)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The Figures 5-6 gate (large dudt gain, no duds gain) is
// TestFig5KernelOptimizationShape in internal/sem: it times the paper's
// two loop structures directly, which only that package can name.

// TestFig7SelectionDivergence gates the Figure 7 claim: on the same
// problem setup, CMT-bone's tuner picks pairwise exchange while
// Nekbone's picks the crystal router.
func TestFig7SelectionDivergence(t *testing.T) {
	const np = 32
	procGrid := comm.FactorGrid(np)
	elemGrid := [3]int{procGrid[0] * 2, procGrid[1] * 2, procGrid[2] * 2}
	periodic := [3]bool{true, true, true}
	box, err := mesh.NewBox(procGrid, elemGrid, 5, periodic)
	if err != nil {
		t.Fatal(err)
	}
	choose := func(ids func(*mesh.Local) []int64) gs.Method {
		var m gs.Method
		_, err := comm.Run(np, comm.Options{Model: netmodel.QDR, Grid: procGrid, Periodic: periodic},
			func(r *comm.Rank) error {
				g := gs.Setup(r, ids(box.Partition(r.ID())))
				got, _ := gs.TuneModeled(g, 2)
				if r.ID() == 0 {
					m = got
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cmt := choose(func(l *mesh.Local) []int64 { return l.DGFaceIDs() })
	nek := choose(func(l *mesh.Local) []int64 { return l.ContinuousIDs() })
	if cmt != gs.Pairwise {
		t.Errorf("CMT-bone tuner chose %v, paper: pairwise exchange", cmt)
	}
	if nek != gs.CrystalRouter {
		t.Errorf("Nekbone tuner chose %v, paper: crystal router", nek)
	}
}

// TestFig9WaitDominatesMPI gates the Figure 9 claim: MPI_Wait is where
// the communication time goes.
func TestFig9WaitDominatesMPI(t *testing.T) {
	cfg := solver.DefaultConfig(8, 6, 2)
	stats, err := comm.Run(8, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		s.SetInitial(solver.GaussianPulse(2, 2, 2, 0.1, 0.5))
		s.Run(3)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sites := stats.AggregateSites()
	var wait, maxOther float64
	for _, s := range sites {
		if s.Op == "MPI_Wait" {
			wait += s.Wall
		} else if s.Wall > maxOther {
			maxOther = s.Wall
		}
	}
	if wait <= maxOther {
		t.Errorf("MPI_Wait (%.4fs) must be the top MPI cost (max other: %.4fs)", wait, maxOther)
	}
}

// TestFig10FaceMessagesDominateBytes gates the Figure 10 claim: the
// nearest-neighbor face exchange dominates communication volume.
func TestFig10FaceMessagesDominateBytes(t *testing.T) {
	cfg := solver.DefaultConfig(8, 6, 2)
	stats, err := comm.Run(8, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		s.SetInitial(solver.GaussianPulse(2, 2, 2, 0.1, 0.5))
		s.Run(3)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var gsBytes, reduceBytes int64
	for _, s := range stats.AggregateSites() {
		switch {
		case s.Site == "gs_op" && s.Op == "MPI_Isend":
			gsBytes += s.Bytes
		case s.Site == "glmax" || s.Site == "glsum":
			reduceBytes += s.Bytes
		}
	}
	if gsBytes <= 10*reduceBytes {
		t.Errorf("face-exchange bytes (%d) must dwarf reduction bytes (%d)", gsBytes, reduceBytes)
	}
}

// TestEndToEndPaperScaledSetup runs a scaled version of the paper's
// Figure 7 configuration through the full mini-app (autotuned gs, modeled
// network) and checks physical and bookkeeping invariants.
func TestEndToEndPaperScaledSetup(t *testing.T) {
	const np = 32
	cfg := solver.DefaultConfig(np, 6, 2)
	cfg.AutoTune = true
	cfg.TuneTrials = 1
	masses := make([]float64, np)
	methods := make([]gs.Method, np)
	stats, err := comm.Run(np, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		s.SetInitial(solver.GaussianPulse(
			float64(cfg.ElemGrid[0])/2, float64(cfg.ElemGrid[1])/2, float64(cfg.ElemGrid[2])/2,
			0.1, 0.6))
		before := s.TotalMass()
		rep := s.Run(2)
		masses[r.ID()] = rep.Mass - before
		methods[r.ID()] = s.GS().Method()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rk := 0; rk < np; rk++ {
		if math.Abs(masses[rk]) > 1e-9 {
			t.Errorf("rank %d saw mass drift %v", rk, masses[rk])
		}
		if methods[rk] != methods[0] {
			t.Errorf("ranks disagree on tuned method: %v vs %v", methods[rk], methods[0])
		}
	}
	if methods[0] != gs.Pairwise {
		t.Errorf("CMT-bone tuned to %v, paper: pairwise", methods[0])
	}
	if stats.MaxVirtualTime() <= 0 {
		t.Error("no modeled time accumulated")
	}
}
