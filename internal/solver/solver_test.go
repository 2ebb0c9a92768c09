package solver

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/gs"
	"repro/internal/sem"
)

func TestUniformFlowIsSteady(t *testing.T) {
	// A uniform state is an exact steady solution: the numerical flux
	// equals the interior flux everywhere, so the RHS must vanish and
	// the state must be preserved to rounding over many steps.
	_, err := comm.RunSimple(2, func(r *comm.Rank) error {
		cfg := DefaultConfig(2, 5, 2)
		s, err := New(r, cfg)
		if err != nil {
			return err
		}
		want := UniformState(1.2, 0.3, -0.2, 0.1, 0.8)
		s.SetInitial(func(x, y, z float64) [NumFields]float64 { return want })
		s.Run(5)
		for c := 0; c < NumFields; c++ {
			for i, v := range s.U[c] {
				if math.Abs(v-want[c]) > 1e-11 {
					t.Errorf("field %d drifted at %d: %v vs %v", c, i, v, want[c])
					return nil
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMassAndConservation(t *testing.T) {
	_, err := comm.RunSimple(4, func(r *comm.Rank) error {
		cfg := DefaultConfig(4, 6, 1)
		s, err := New(r, cfg)
		if err != nil {
			return err
		}
		s.SetInitial(GaussianPulse(
			float64(cfg.ElemGrid[0])/2, float64(cfg.ElemGrid[1])/2, float64(cfg.ElemGrid[2])/2,
			0.1, 0.5))
		before := s.TotalMass()
		energyBefore := s.Integrate(IEnergy)
		rep := s.Run(10)
		if math.Abs(rep.Mass-before) > 1e-10*math.Abs(before) {
			t.Errorf("mass not conserved: %v -> %v", before, rep.Mass)
		}
		// Momentum integrals are conserved too on a periodic box.
		for _, c := range []int{IMomX, IMomY, IMomZ} {
			if m := s.Integrate(c); math.Abs(m) > 1e-9 {
				t.Errorf("momentum %d drifted to %v", c, m)
			}
		}
		// Total (conserved) energy integral changes only through the LF
		// dissipation acting on the energy field's own flux — it must
		// stay bounded and close to the initial value.
		if math.Abs(rep.Energy-energyBefore) > 0.05*math.Abs(energyBefore) {
			t.Errorf("energy integral moved too much: %v -> %v", energyBefore, rep.Energy)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPulseStaysBoundedAndPropagates(t *testing.T) {
	_, err := comm.RunSimple(1, func(r *comm.Rank) error {
		cfg := DefaultConfig(1, 6, 3) // 3x3x3 elements on one rank
		s, err := New(r, cfg)
		if err != nil {
			return err
		}
		s.SetInitial(GaussianPulse(1.5, 1.5, 1.5, 0.05, 0.4))
		// Sample a point far from the pulse center: element (2,2,2).
		probe := func() float64 {
			e := s.Local.ElemIndex(2, 2, 2)
			n := cfg.N
			return s.U[IRho][e*n*n*n+(n-1)+n*(n-1)+n*n*(n-1)]
		}
		before := probe()
		for i := 0; i < 60; i++ {
			s.Step(s.StableDt())
		}
		after := probe()
		if math.Abs(after-before) < 1e-8 {
			t.Errorf("acoustic wave never reached the probe: %v -> %v", before, after)
		}
		// Bounded: no blowup anywhere.
		for _, v := range s.U[IRho] {
			if math.IsNaN(v) || v <= 0 || v > 2 {
				t.Errorf("density out of bounds: %v", v)
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// gatherGlobalDensity collects the density field onto rank 0 keyed by
// global element id.
func gatherGlobalDensity(s *Solver) map[int64][]float64 {
	r := s.Rank
	n3 := s.Cfg.N * s.Cfg.N * s.Cfg.N
	if r.ID() != 0 {
		for e := 0; e < s.Local.Nel; e++ {
			g := s.Local.GlobalElemCoords(e)
			payload := append([]float64{float64(s.Local.Box.GlobalElemID(g))},
				s.U[IRho][e*n3:(e+1)*n3]...)
			r.Send(0, 999, payload)
		}
		return nil
	}
	out := map[int64][]float64{}
	for e := 0; e < s.Local.Nel; e++ {
		g := s.Local.GlobalElemCoords(e)
		out[s.Local.Box.GlobalElemID(g)] = append([]float64(nil), s.U[IRho][e*n3:(e+1)*n3]...)
	}
	total := s.Local.Box.TotalElems()
	for len(out) < total {
		data := r.Recv(comm.AnySource, 999)
		out[int64(data[0])] = data[1:]
	}
	return out
}

func TestParallelMatchesSerial(t *testing.T) {
	// The same global problem on 1 rank and on 8 ranks must produce the
	// same fields (up to floating-point reassociation in reductions).
	elemGrid := [3]int{4, 2, 2}
	n := 5
	steps := 4
	ic := GaussianPulse(2, 1, 1, 0.08, 0.6)

	run := func(p int, procGrid [3]int) map[int64][]float64 {
		var result map[int64][]float64
		_, err := comm.RunSimple(p, func(r *comm.Rank) error {
			cfg := Config{
				N: n, ProcGrid: procGrid, ElemGrid: elemGrid,
				Periodic: [3]bool{true, true, true},
				Variant:  sem.Optimized, GSMethod: gs.Pairwise, CFL: 0.25,
			}
			s, err := New(r, cfg)
			if err != nil {
				return err
			}
			s.SetInitial(ic)
			s.Run(steps)
			if m := gatherGlobalDensity(s); m != nil {
				result = m
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return result
	}

	serial := run(1, [3]int{1, 1, 1})
	parallel := run(8, [3]int{2, 2, 2})
	if len(serial) != len(parallel) {
		t.Fatalf("element counts differ: %d vs %d", len(serial), len(parallel))
	}
	for id, sv := range serial {
		pv, ok := parallel[id]
		if !ok {
			t.Fatalf("element %d missing from parallel run", id)
		}
		for i := range sv {
			if math.Abs(sv[i]-pv[i]) > 1e-9*(1+math.Abs(sv[i])) {
				t.Fatalf("element %d point %d: serial %v vs parallel %v", id, i, sv[i], pv[i])
			}
		}
	}
}

func TestVariantsProduceSameAnswer(t *testing.T) {
	run := func(v sem.KernelVariant) []float64 {
		var out []float64
		_, err := comm.RunSimple(1, func(r *comm.Rank) error {
			cfg := DefaultConfig(1, 5, 2)
			cfg.Variant = v
			s, err := New(r, cfg)
			if err != nil {
				return err
			}
			s.SetInitial(GaussianPulse(1, 1, 1, 0.05, 0.5))
			s.Run(3)
			out = append([]float64(nil), s.U[IEnergy]...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	basic := run(sem.Basic)
	opt := run(sem.Optimized)
	for i := range basic {
		if math.Abs(basic[i]-opt[i]) > 1e-10*(1+math.Abs(basic[i])) {
			t.Fatalf("kernel variants diverge at %d: %v vs %v", i, basic[i], opt[i])
		}
	}
}

func TestGSMethodsProduceSameAnswer(t *testing.T) {
	run := func(m gs.Method) []float64 {
		var out []float64
		_, err := comm.RunSimple(4, func(r *comm.Rank) error {
			cfg := DefaultConfig(4, 4, 1)
			cfg.GSMethod = m
			s, err := New(r, cfg)
			if err != nil {
				return err
			}
			s.SetInitial(GaussianPulse(1, 1, 1, 0.05, 0.5))
			s.Run(3)
			if r.ID() == 0 {
				out = append([]float64(nil), s.U[IRho]...)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(gs.Pairwise)
	for _, m := range []gs.Method{gs.CrystalRouter, gs.AllReduce} {
		got := run(m)
		for i := range ref {
			if math.Abs(ref[i]-got[i]) > 1e-10*(1+math.Abs(ref[i])) {
				t.Fatalf("%v diverges from pairwise at %d: %v vs %v", m, i, got[i], ref[i])
			}
		}
	}
}

func TestWaveSpeedQuiescent(t *testing.T) {
	_, err := comm.RunSimple(1, func(r *comm.Rank) error {
		cfg := DefaultConfig(1, 4, 2)
		s, err := New(r, cfg)
		if err != nil {
			return err
		}
		// Background of GaussianPulse with amp 0: rho=1, p=1/gamma, at
		// rest => wave speed = sound speed = sqrt(gamma*p/rho) = 1.
		s.SetInitial(GaussianPulse(0, 0, 0, 0, 1))
		if lam := s.MaxWaveSpeed(); math.Abs(lam-1) > 1e-12 {
			t.Errorf("quiescent wave speed = %v, want 1", lam)
		}
		if dt := s.StableDt(); dt <= 0 || dt > 1 {
			t.Errorf("dt = %v", dt)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDealiasRunWorks(t *testing.T) {
	_, err := comm.RunSimple(1, func(r *comm.Rank) error {
		cfg := DefaultConfig(1, 5, 2)
		cfg.Dealias = true
		s, err := New(r, cfg)
		if err != nil {
			return err
		}
		s.SetInitial(GaussianPulse(1, 1, 1, 0.05, 0.5))
		rep := s.Run(2)
		if rep.Ops.Flops() <= 0 {
			t.Error("no work recorded")
		}
		for _, v := range s.U[IRho] {
			if math.IsNaN(v) {
				t.Error("NaN with dealiasing enabled")
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonPeriodicRunStaysFinite(t *testing.T) {
	_, err := comm.RunSimple(1, func(r *comm.Rank) error {
		cfg := DefaultConfig(1, 5, 2)
		cfg.Periodic = [3]bool{false, false, false}
		s, err := New(r, cfg)
		if err != nil {
			return err
		}
		s.SetInitial(GaussianPulse(1, 1, 1, 0.05, 0.5))
		s.Run(5)
		for _, v := range s.U[IRho] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Error("non-periodic run produced non-finite density")
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProfileShape(t *testing.T) {
	// The derivative kernel must dominate the execution profile, as in
	// the paper's Figure 4.
	_, err := comm.RunSimple(1, func(r *comm.Rank) error {
		cfg := DefaultConfig(1, 8, 2)
		s, err := New(r, cfg)
		if err != nil {
			return err
		}
		s.SetInitial(GaussianPulse(1, 1, 1, 0.05, 0.5))
		s.Run(3)
		self := map[string]float64{}
		for _, reg := range s.Rec.Flat() {
			self[reg.Name] += reg.Self
		}
		deriv := self["ax_deriv_dudr"] + self["ax_deriv_duds"] + self["ax_deriv_dudt"]
		if deriv <= 0 {
			t.Error("no derivative time recorded")
		}
		if deriv <= self["full2face_cmt"] {
			t.Errorf("derivative (%v) should dominate full2face (%v)", deriv, self["full2face_cmt"])
		}
		if self["timestep"] < 0 {
			t.Error("negative self time")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig(4, 5, 2)
	if err := cfg.Validate(4); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := cfg.Validate(5); err == nil {
		t.Fatal("wrong rank count accepted")
	}
	bad := cfg
	bad.N = 1
	if err := bad.Validate(4); err == nil {
		t.Fatal("N=1 accepted")
	}
	bad = cfg
	bad.ElemGrid = [3]int{3, 3, 3}
	if err := bad.Validate(4); err == nil {
		t.Fatal("indivisible elem grid accepted")
	}
	bad = cfg
	bad.Variant = sem.KernelVariant(7)
	if err := bad.Validate(4); err == nil {
		t.Fatal("unknown kernel variant accepted")
	}
}

func TestPaperFig7Config(t *testing.T) {
	cfg := PaperFig7Config()
	if err := cfg.Validate(256); err != nil {
		t.Fatal(err)
	}
	box, err := cfg.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	if box.TotalElems() != 25600 || box.LocalElems() != 100 {
		t.Fatalf("paper setup: total %d local %d", box.TotalElems(), box.LocalElems())
	}
}

func TestAutoTuneRuns(t *testing.T) {
	_, err := comm.RunSimple(2, func(r *comm.Rank) error {
		cfg := DefaultConfig(2, 4, 1)
		cfg.AutoTune = true
		cfg.TuneTrials = 1
		s, err := New(r, cfg)
		if err != nil {
			return err
		}
		s.SetInitial(GaussianPulse(1, 1, 1, 0.05, 0.5))
		s.Run(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStepAllocs pins the heap allocations of one steady-state timestep
// (dt reduction, SSP-RK3 step, telemetry) on a serial pool. The ceilings
// are the measured counts plus 10 %: 20 objects inviscid, 59
// viscous+dealiased — the pool closures of the pointwise passes; a
// region allocates nothing. (A
// step allocated 521 and 746 when the volume phase opened a region per
// (field, direction) sweep, 59 and 125 when every region was a profiler
// closure, a span closure and a phase closure.)
func TestStepAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		viscous bool
		max     float64
	}{
		{"inviscid", false, 22},
		{"viscous", true, 65},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := comm.RunSimple(1, func(r *comm.Rank) error {
				cfg := DefaultConfig(1, 5, 2)
				cfg.Workers = 1
				if tc.viscous {
					cfg.Mu = 0.01
					cfg.Dealias = true
				}
				s, err := New(r, cfg)
				if err != nil {
					return err
				}
				defer s.Close()
				s.SetInitial(GaussianPulse(1, 1, 1, 0.1, 0.5))
				step := 0
				s.AdvanceStep(step) // first step: profiler maps, clock phases
				got := testing.AllocsPerRun(10, func() {
					step++
					s.AdvanceStep(step)
				})
				if got > tc.max {
					t.Errorf("%.0f allocations per step, want at most %.0f", got, tc.max)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
