package solver

import (
	"math"
	"testing"

	"repro/internal/comm"
)

func TestZeroSourceMatchesNoSource(t *testing.T) {
	run := func(enable bool) []float64 {
		var out []float64
		_, err := comm.RunSimple(1, func(r *comm.Rank) error {
			cfg := DefaultConfig(1, 5, 2)
			s, err := New(r, cfg)
			if err != nil {
				return err
			}
			s.SetInitial(GaussianPulse(1, 1, 1, 0.05, 0.5))
			if enable {
				s.EnableSource() // allocated but all-zero
			}
			s.Run(3)
			out = append([]float64(nil), s.U[IEnergy]...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	off := run(false)
	on := run(true)
	for i := range off {
		if off[i] != on[i] {
			t.Fatalf("zero source changed the solution at %d: %v vs %v", i, off[i], on[i])
		}
	}
}

func TestConstantMassSourceGrowsMassAtKnownRate(t *testing.T) {
	// With du/dt = ... + R and R_rho = const, total mass must grow by
	// R * volume * t (the flux terms conserve mass exactly).
	_, err := comm.RunSimple(2, func(r *comm.Rank) error {
		cfg := DefaultConfig(2, 5, 2)
		s, err := New(r, cfg)
		if err != nil {
			return err
		}
		s.SetInitial(func(x, y, z float64) [NumFields]float64 {
			return UniformState(1, 0, 0, 0, 1/Gamma)
		})
		src := s.EnableSource()
		const rate = 0.01
		for i := range src[IRho] {
			src[IRho][i] = rate
		}
		m0 := s.TotalMass()
		var elapsed float64
		const steps = 5
		for i := 0; i < steps; i++ {
			dt := 1e-3
			s.Step(dt)
			elapsed += dt
		}
		m1 := s.TotalMass()
		volume := float64(cfg.ElemGrid[0] * cfg.ElemGrid[1] * cfg.ElemGrid[2])
		want := m0 + rate*volume*elapsed
		if math.Abs(m1-want) > 1e-9*want {
			t.Errorf("mass after sourced run = %.12f, want %.12f", m1, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFilterKeepsUniformStateExactly(t *testing.T) {
	_, err := comm.RunSimple(1, func(r *comm.Rank) error {
		cfg := DefaultConfig(1, 6, 2)
		cfg.FilterCutoff = 3
		cfg.FilterStrength = 0.2
		s, err := New(r, cfg)
		if err != nil {
			return err
		}
		want := UniformState(1.1, 0.2, 0, 0, 0.9)
		s.SetInitial(func(x, y, z float64) [NumFields]float64 { return want })
		s.Run(4)
		for c := 0; c < NumFields; c++ {
			for i, v := range s.U[c] {
				if math.Abs(v-want[c]) > 1e-10 {
					t.Errorf("filtered uniform state drifted: field %d idx %d: %v vs %v",
						c, i, v, want[c])
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

func TestFilterStabilizesStrongPulse(t *testing.T) {
	// A strong pulse at marginal resolution: the filtered run must stay
	// finite and produce a bounded density field.
	_, err := comm.RunSimple(1, func(r *comm.Rank) error {
		cfg := DefaultConfig(1, 7, 2)
		cfg.FilterCutoff = 4
		cfg.FilterStrength = 0.3
		cfg.CFL = 0.25
		s, err := New(r, cfg)
		if err != nil {
			return err
		}
		s.SetInitial(GaussianPulse(1, 1, 1, 0.8, 0.3))
		for i := 0; i < 30; i++ {
			s.Step(s.StableDt())
		}
		for _, v := range s.U[IRho] {
			if math.IsNaN(v) || v <= 0 {
				t.Errorf("filtered strong pulse went unstable: rho = %v", v)
				return nil
			}
		}
		// The filter region must actually have run.
		found := false
		for _, reg := range s.Rec.Flat() {
			if reg.Name == "spectral_filter" && reg.Calls > 0 {
				found = true
			}
		}
		if !found {
			t.Error("spectral_filter region missing from profile")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFilterConservesMass(t *testing.T) {
	// The modal filter preserves mode 0 (the element mean is untouched
	// ... exactly: P_0 passes with sigma=1), so total mass is conserved.
	_, err := comm.RunSimple(1, func(r *comm.Rank) error {
		cfg := DefaultConfig(1, 6, 2)
		cfg.FilterCutoff = 2
		cfg.FilterStrength = 1.0
		s, err := New(r, cfg)
		if err != nil {
			return err
		}
		s.SetInitial(GaussianPulse(1, 1, 1, 0.2, 0.4))
		before := s.TotalMass()
		rep := s.Run(5)
		if math.Abs(rep.Mass-before) > 1e-9*math.Abs(before) {
			t.Errorf("filter broke mass conservation: %v -> %v", before, rep.Mass)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPackedExchangeMatchesPerField(t *testing.T) {
	run := func(packed bool) []float64 {
		var out []float64
		_, err := comm.RunSimple(4, func(r *comm.Rank) error {
			cfg := DefaultConfig(4, 5, 1)
			cfg.PackedExchange = packed
			s, err := New(r, cfg)
			if err != nil {
				return err
			}
			s.SetInitial(GaussianPulse(1, 1, 1, 0.08, 0.5))
			s.Run(3)
			if r.ID() == 2 {
				out = append([]float64(nil), s.U[IMomX]...)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	perField := run(false)
	packed := run(true)
	for i := range perField {
		if perField[i] != packed[i] {
			t.Fatalf("packed exchange diverges at %d: %v vs %v", i, packed[i], perField[i])
		}
	}
}

func TestDtControllerLimitsGrowth(t *testing.T) {
	c := &DtController{MaxGrowth: 1.1}
	first := c.Next(1e-3)
	if first != 1e-3 {
		t.Fatalf("first dt = %v", first)
	}
	// A sudden 10x jump in the stable dt must be limited to 10% growth.
	second := c.Next(1e-2)
	if second > 1.1*first+1e-15 {
		t.Fatalf("growth unbounded: %v after %v", second, first)
	}
	// A shrink is taken immediately.
	third := c.Next(1e-4)
	if third != 1e-4 {
		t.Fatalf("shrink not honored: %v", third)
	}
}

func TestRunAdaptiveConservesAndRecordsHistory(t *testing.T) {
	_, err := comm.RunSimple(2, func(r *comm.Rank) error {
		cfg := DefaultConfig(2, 5, 2)
		s, err := New(r, cfg)
		if err != nil {
			return err
		}
		s.SetInitial(GaussianPulse(1, 1, 1, 0.1, 0.5))
		before := s.TotalMass()
		rep, hist := s.RunAdaptive(6, nil)
		if len(hist) != 6 {
			t.Errorf("dt history length %d", len(hist))
		}
		for i := 1; i < len(hist); i++ {
			if hist[i] > hist[i-1]*1.1+1e-15 {
				t.Errorf("dt grew too fast at step %d: %v -> %v", i, hist[i-1], hist[i])
			}
		}
		if math.Abs(rep.Mass-before) > 1e-10*math.Abs(before) {
			t.Errorf("adaptive run broke conservation")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
