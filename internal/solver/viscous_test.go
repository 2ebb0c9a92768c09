package solver

import (
	"math"
	"testing"

	"repro/internal/comm"
)

// shearWaveIC returns u_y = amp*sin(2 pi x / L) on a quiescent uniform
// background — the classic viscous-decay validation problem.
func shearWaveIC(lCells float64, amp float64) func(x, y, z float64) [NumFields]float64 {
	k := 2 * math.Pi / lCells
	return func(x, y, z float64) [NumFields]float64 {
		return UniformState(1, 0, amp*math.Sin(k*x), 0, 1/Gamma)
	}
}

// momentumYNorm returns the global L2 norm of the y-momentum.
func momentumYNorm(s *Solver) float64 {
	n := s.Cfg.N
	n3 := n * n * n
	local := 0.0
	for e := 0; e < s.Local.Nel; e++ {
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					w := s.Ref.W[i] * s.Ref.W[j] * s.Ref.W[k] / 8
					v := s.U[IMomY][e*n3+i+n*j+n*n*k]
					local += w * v * v
				}
			}
		}
	}
	out := s.Rank.Allreduce(comm.OpSum, []float64{local})
	return math.Sqrt(out[0])
}

func TestViscousUniformFlowSteady(t *testing.T) {
	_, err := comm.RunSimple(2, func(r *comm.Rank) error {
		cfg := DefaultConfig(2, 5, 2)
		cfg.Mu = 0.05
		s, err := New(r, cfg)
		if err != nil {
			return err
		}
		want := UniformState(1.1, 0.2, -0.1, 0.3, 0.9)
		s.SetInitial(func(x, y, z float64) [NumFields]float64 { return want })
		s.Run(4)
		for c := 0; c < NumFields; c++ {
			for i, v := range s.U[c] {
				if math.Abs(v-want[c]) > 1e-10 {
					t.Errorf("viscous uniform flow drifted: field %d idx %d: %v vs %v", c, i, v, want[c])
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

func TestShearWaveViscousDecayRate(t *testing.T) {
	// The y-momentum of a shear wave decays as exp(-nu k^2 t); the
	// measured rate (after subtracting the inviscid run's numerical
	// dissipation) must match the analytic rate.
	run := func(mu float64) (rate float64) {
		_, err := comm.RunSimple(1, func(r *comm.Rank) error {
			cfg := DefaultConfig(1, 8, 2) // 2 elements/dir, L = 2
			cfg.Mu = mu
			cfg.CFL = 0.25
			s, err := New(r, cfg)
			if err != nil {
				return err
			}
			s.SetInitial(shearWaveIC(2, 0.01))
			e0 := momentumYNorm(s)
			elapsed := 0.0
			for elapsed < 0.5 {
				dt := s.StableDt()
				s.Step(dt)
				elapsed += dt
			}
			e1 := momentumYNorm(s)
			rate = math.Log(e0/e1) / elapsed
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rate
	}

	const mu = 0.02
	k := math.Pi // 2*pi/L with L = 2
	want := mu * k * k

	base := run(0)
	visc := run(mu)
	got := visc - base
	if math.Abs(got-want) > 0.15*want {
		t.Fatalf("viscous decay rate = %v (baseline %v), want %v +-15%%", got, base, want)
	}
	// Numerical dissipation must be a small correction, not the story.
	if base > 0.3*want {
		t.Fatalf("numerical dissipation %v too large vs physical %v", base, want)
	}
}

func TestViscousConservation(t *testing.T) {
	// Viscosity redistributes momentum and converts kinetic energy to
	// heat but conserves mass, total momentum, and total energy on a
	// periodic box.
	_, err := comm.RunSimple(2, func(r *comm.Rank) error {
		cfg := DefaultConfig(2, 6, 2)
		cfg.Mu = 0.03
		s, err := New(r, cfg)
		if err != nil {
			return err
		}
		s.SetInitial(shearWaveIC(float64(cfg.ElemGrid[0]), 0.05))
		m0 := s.TotalMass()
		e0 := s.Integrate(IEnergy)
		p0 := s.Integrate(IMomY)
		s.Run(8)
		if m1 := s.TotalMass(); math.Abs(m1-m0) > 1e-10*math.Abs(m0) {
			t.Errorf("mass drifted: %v -> %v", m0, m1)
		}
		if e1 := s.Integrate(IEnergy); math.Abs(e1-e0) > 1e-5*math.Abs(e0) {
			t.Errorf("total energy drifted: %v -> %v", e0, e1)
		}
		if p1 := s.Integrate(IMomY); math.Abs(p1-p0) > 1e-9 {
			t.Errorf("y-momentum drifted: %v -> %v", p0, p1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestViscousParallelMatchesSerial(t *testing.T) {
	run := func(p int, grid [3]int) []float64 {
		var out []float64
		_, err := comm.RunSimple(p, func(r *comm.Rank) error {
			cfg := Config{
				N: 5, ProcGrid: grid, ElemGrid: [3]int{2, 2, 2},
				Periodic: [3]bool{true, true, true}, CFL: 0.25, Mu: 0.02,
			}
			s, err := New(r, cfg)
			if err != nil {
				return err
			}
			s.SetInitial(shearWaveIC(2, 0.02))
			s.Run(3)
			if m := gatherGlobalDensity(s); m != nil {
				// flatten deterministically by global id order
				for id := int64(0); id < int64(len(m)); id++ {
					out = append(out, m[id]...)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1, [3]int{1, 1, 1})
	parallel := run(8, [3]int{2, 2, 2})
	if len(serial) == 0 || len(serial) != len(parallel) {
		t.Fatalf("bad gather: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if math.Abs(serial[i]-parallel[i]) > 1e-9*(1+math.Abs(serial[i])) {
			t.Fatalf("viscous parallel run diverges at %d: %v vs %v", i, serial[i], parallel[i])
		}
	}
}

func TestViscousAmplifiesDerivativeKernelCount(t *testing.T) {
	// The Navier-Stokes path adds 12 gradient passes per RHS: 27
	// direction passes per RHS vs 15 inviscid. With the Optimized
	// variant the 12 gradient passes run as one fused sweep per RHS
	// (span "ax_grad3_fused", 4 quantities x 3 directions each), so the
	// amplification is counted as fused calls times 12.
	count := func(mu float64) int64 {
		var calls int64
		_, err := comm.RunSimple(1, func(r *comm.Rank) error {
			cfg := DefaultConfig(1, 5, 1)
			cfg.Mu = mu
			s, err := New(r, cfg)
			if err != nil {
				return err
			}
			s.SetInitial(shearWaveIC(1, 0.01))
			s.Step(1e-4)
			for _, reg := range s.Rec.Flat() {
				switch reg.Name {
				case "ax_deriv_dudr", "ax_deriv_duds", "ax_deriv_dudt":
					calls += reg.Calls
				case "ax_grad3_fused":
					calls += reg.Calls * 12
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return calls
	}
	inviscid := count(0)
	viscous := count(0.01)
	// 3 RK stages: inviscid 3*15 = 45; viscous 3*27 = 81.
	if inviscid != 45 {
		t.Fatalf("inviscid deriv direction passes = %d, want 45", inviscid)
	}
	if viscous != 81 {
		t.Fatalf("viscous deriv direction passes = %d, want 81", viscous)
	}
}

// entropyWaveIC is an exact nonlinear Euler solution: a density wave
// advected unchanged at the uniform flow speed (pressure and velocity
// constant).
func entropyWaveIC(lCells, amp, u0 float64) func(x, y, z float64) [NumFields]float64 {
	k := 2 * math.Pi / lCells
	return func(x, y, z float64) [NumFields]float64 {
		rho := 1 + amp*math.Sin(k*x)
		return UniformState(rho, u0, 0, 0, 1/Gamma)
	}
}

func TestEntropyWaveSpectralConvergence(t *testing.T) {
	// Advect the wave for a fixed time and measure the density error
	// against the exact translated solution; the error must fall
	// steeply as N rises (spectral accuracy).
	const (
		u0  = 0.4
		amp = 0.02
		end = 0.5
	)
	errAt := func(n int) float64 {
		var maxErr float64
		_, err := comm.RunSimple(1, func(r *comm.Rank) error {
			cfg := DefaultConfig(1, n, 2) // L = 2
			cfg.CFL = 0.2
			s, err := New(r, cfg)
			if err != nil {
				return err
			}
			s.SetInitial(entropyWaveIC(2, amp, u0))
			elapsed := 0.0
			for elapsed < end {
				dt := s.StableDt()
				if elapsed+dt > end {
					dt = end - elapsed
				}
				s.Step(dt)
				elapsed += dt
			}
			k := math.Pi
			nn := cfg.N
			n3 := nn * nn * nn
			for e := 0; e < s.Local.Nel; e++ {
				for kk := 0; kk < nn; kk++ {
					for j := 0; j < nn; j++ {
						for i := 0; i < nn; i++ {
							x, _, _ := s.PointCoords(e, i, j, kk)
							want := 1 + amp*math.Sin(k*(x-u0*end))
							got := s.U[IRho][e*n3+i+nn*j+nn*nn*kk]
							if d := math.Abs(got - want); d > maxErr {
								maxErr = d
							}
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return maxErr
	}
	coarse := errAt(4)
	fine := errAt(8)
	if fine >= coarse/8 {
		t.Fatalf("no spectral convergence: err(N=4)=%v err(N=8)=%v", coarse, fine)
	}
	if fine > 1e-4 {
		t.Fatalf("N=8 entropy wave error too large: %v", fine)
	}
}
