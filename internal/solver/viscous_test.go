package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/sem"
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
	// variant the 12 gradient passes (4 quantities x 3 directions) run
	// inside one "ax_grad3_fused" region per RHS, so the amplification
	// is counted as that region's calls times 12.
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

// faceGradSpecials are the values FuzzFaceGradient laces its states
// with: signed zeros and subnormals, which decide the sign of a zero
// sum and where a kernel starts its accumulator.
var faceGradSpecials = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.5e-308, -1e-310}

// FuzzFaceGradient holds the viscous face pass to the volume pass at the
// face points of one random element, bit for bit: every face's
// derivatives of the velocity and temperature (ElemDeriv.FaceApply
// against Apply and GatherFace) and its viscous flux trace
// (faceViscousFlux against volumeElem's own flux traces). The seed
// corpus covers every order from 2 to 17 with both kernel variants;
// density d in (0, 8) sets about every d-th value of the state to a
// signed zero or a subnormal. Any NaN equals any NaN.
func FuzzFaceGradient(f *testing.F) {
	for n := 2; n <= 17; n++ {
		f.Add(int64(n), uint8(n-2), false, uint8(n%4))
		f.Add(int64(100+n), uint8(n-2), true, uint8(1+n%3))
	}
	f.Fuzz(func(t *testing.T, seed int64, rn uint8, basic bool, density uint8) {
		if err := faceGradientAgrees(seed, 2+int(rn)%16, basic, int(density)%8); err != nil {
			t.Fatal(err)
		}
	})
}

func faceGradientAgrees(seed int64, n int, basic bool, density int) error {
	n2, n3 := n*n, n*n*n
	rng := rand.New(rand.NewSource(seed))
	v := sem.Optimized
	if basic {
		v = sem.Basic
	}
	ref := sem.NewRef1D(n)
	s := &Solver{Cfg: Config{N: n, Mu: 0.01, Pr: 0.72, Variant: v}, Ref: ref, rx: 2}
	var u [NumFields][]float64
	for c := range u {
		u[c] = make([]float64, n3)
		for i := range u[c] {
			switch {
			case density > 0 && rng.Intn(density) == 0 && c != IRho:
				u[c][i] = faceGradSpecials[rng.Intn(len(faceGradSpecials))]
			case c == IRho:
				u[c][i] = 0.5 + rng.Float64()
			case c == IEnergy:
				u[c][i] = 2 + rng.Float64()
			default:
				u[c][i] = 2*rng.Float64() - 1
			}
		}
	}
	s.in, s.kern = &u, sem.NewElemDeriv(v, ref)
	r, own, scr := viscousSlot(make([]float64, NumFields*n3+ownTracesLen(n)+max(23*n3, 5*n3+28*n2)), n)
	var sl volSlot
	s.volumeElem(0, &sl, scr, &r, &own)

	prim := scr[:5*n3]
	s.elemPrimitives(0, prim)
	full, tr, got, want, tmp := make([]float64, n3), make([]float64, n2), make([]float64, n2), make([]float64, n2), make([]float64, n2)
	for q, name := range []string{"vx", "vy", "vz", "T"} {
		x := prim[q*n3:][:n3]
		for dir := sem.DirR; dir <= sem.DirT; dir++ {
			s.kern.Apply(dir, x, full)
			for f := 0; f < sem.NFaces; f++ {
				sem.GatherFace(n, f, x, tr)
				sem.GatherFace(n, f, full, want)
				s.kern.FaceApply(dir, f, x, tr, got, tmp)
				if i := diffBitsNaN(got, want); i >= 0 {
					return fmt.Errorf("N=%d %v: %v of %s at face %d point %d: FaceApply %v, Apply %v", n, v, dir, name, f, i, got[i], want[i])
				}
			}
		}
	}
	var fl, st faceSlabs
	st.lay(fl.lay(make([]float64, 2*NumFields*n2), n2), n2)
	for f := range own {
		s.gatherTrace(0, f, &st)
		s.faceViscousFlux(f, prim, &st, scr[5*n3:], &fl, &sl)
		for c := range fl {
			if i := diffBitsNaN(fl[c], own[f][c]); i >= 0 {
				return fmt.Errorf("N=%d %v: face %d field %d point %d: face pass %v, volume pass %v", n, v, f, c, i, fl[c][i], own[f][c][i])
			}
		}
	}
	return nil
}

// viscousSlot lays a viscous pool slot's scratch out over buf as
// postElems does: the residual, the element's own flux traces, then the
// rest.
func viscousSlot(buf []float64, n int) (r [NumFields][]float64, own [sem.NFaces]faceSlabs, scr []float64) {
	n3 := n * n * n
	for c := range r {
		r[c] = buf[c*n3:][:n3]
	}
	scr = buf[NumFields*n3:]
	for f := range own {
		scr = own[f].lay(scr, n*n)
	}
	return r, own, scr
}

// diffBitsNaN returns the first index at which got and want differ by
// Float64bits, any two NaNs alike, or -1.
func diffBitsNaN(got, want []float64) int {
	for i, w := range want {
		if g := got[i]; math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			return i
		}
	}
	return -1
}
