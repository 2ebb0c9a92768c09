package solver

import (
	"repro/internal/obs"
	"repro/internal/sem"
)

// The viscous path: CMT-nek is an explicit solver for the compressible
// Navier-Stokes equations (paper Section III.A); setting Config.Mu > 0
// enables the corresponding flux terms here. Velocity and temperature
// gradients are computed with the same derivative kernel as the flux
// divergence (twelve more ax_ passes per right-hand side — exactly the
// kernel-count amplification the full physics brings), the Newtonian
// stress tensor and Fourier heat flux are formed pointwise, and the
// viscous contribution is folded into the total flux before the
// divergence and face-exchange stages, giving a BR1-style averaged
// interface flux.
//
// The gradients are the broken (element-local) DG gradients, without a
// dedicated interface correction — second-order accurate at element
// interfaces for resolved fields, which is what a cost-faithful mini-app
// needs; the shear-wave decay test pins the quantitative behaviour.

// gradient quantity indices within s.gradQ/s.gradD.
const (
	gradVx = iota
	gradVy
	gradVz
	gradT
	numGradQ
)

// computeGradients fills s.gradD[q][d] with the physical-space
// derivative of quantity q (velocity components and temperature) of the
// state in, along direction d. Requires the primitive pass to have run.
func (s *Solver) computeGradients(in *[NumFields][]float64) {
	nel := s.Local.Nel
	vol := len(s.prP)

	// Temperature with the gas constant R = 1: T = p / rho.
	stop := s.span("compute_primitive", obs.CatKernel)
	tq := s.gradQ[gradT]
	rho := in[IRho]
	s.pool.For(vol, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			tq[i] = s.prP[i] / rho[i]
		}
	})
	copy(s.gradQ[gradVx], s.velP[0])
	copy(s.gradQ[gradVy], s.velP[1])
	copy(s.gradQ[gradVz], s.velP[2])
	s.chargeCompute(sem.OpCount{Mul: int64(vol), Load: 2 * int64(vol), Store: int64(vol)}, pointwiseTraits)
	stop()

	if s.Cfg.Variant == sem.Optimized {
		// Fused pass: all three directions of every quantity in one sweep
		// per element, bit-identical to the three separate sweeps (the
		// generated kernels replicate the Optimized accumulation order
		// exactly). The hw model is still charged per direction with the
		// same structural counts and traits the unfused path reports, so
		// modeled time is unchanged; only wall time and the profiler span
		// structure move.
		stop := s.span("ax_grad3_fused", obs.CatKernel)
		for q := 0; q < numGradQ; q++ {
			sem.Grad3FusedPool(s.pool, s.Ref, s.gradQ[q],
				s.gradD[q][0], s.gradD[q][1], s.gradD[q][2], nel)
			for d := 0; d < 3; d++ {
				s.chargeCompute(sem.DerivOps(s.Ref.N, nel), s.derivTraits[d])
			}
		}
		stop()
	} else {
		// The Basic variant keeps the three unfused sweeps: it is the
		// paper's untransformed ablation point, and fusion is itself a
		// loop transformation.
		for q := 0; q < numGradQ; q++ {
			for d := 0; d < 3; d++ {
				dir := sem.Direction(d)
				stop := s.span("ax_deriv_"+dir.String(), obs.CatKernel)
				ops := sem.DerivPool(s.pool, dir, s.Cfg.Variant, s.Ref, s.gradQ[q], s.gradD[q][d], nel)
				s.chargeCompute(ops, s.derivTraits[d])
				stop()
			}
		}
	}
	// Constant metric: d/dx = rx * d/dr.
	for q := 0; q < numGradQ; q++ {
		for d := 0; d < 3; d++ {
			gd := s.gradD[q][d]
			s.pool.For(vol, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					gd[i] *= s.rx
				}
			})
		}
	}
	s.chargeCompute(sem.OpCount{Mul: int64(vol) * numGradQ * 3,
		Load: int64(vol) * numGradQ * 3, Store: int64(vol) * numGradQ * 3}, pointwiseTraits)
}

// addViscousFlux subtracts the viscous flux of conserved variable c
// along direction d from s.fx (which already holds the Euler flux).
// Requires computeGradients.
func (s *Solver) addViscousFlux(c, d int) {
	s.addViscousFluxRange(c, d, 0, len(s.fx))
}

// addViscousFluxRange is addViscousFlux over the point range
// [off, off+volr) — the overlap path calls it per element run; values are
// pointwise, so any split is bit-identical to the full sweep.
func (s *Solver) addViscousFluxRange(c, d, off, volr int) {
	mu := s.Cfg.Mu
	// Fourier conductivity: kappa = mu * cp / Pr, cp = Gamma/(Gamma-1)
	// with R = 1.
	kappa := mu * Gamma / (Gamma - 1) / s.Cfg.Pr

	dudx := s.gradD[gradVx]
	dvdx := s.gradD[gradVy]
	dwdx := s.gradD[gradVz]

	switch {
	case c == IRho:
		// No viscous mass flux.
	case c >= IMomX && c <= IMomZ:
		i := c - IMomX // stress row
		// tau_{i,d} = mu (dv_i/dx_d + dv_d/dx_i) - (2/3) mu div(v) delta_{i,d}
		gi := s.gradD[gradVx+i][d]
		gd := s.gradD[gradVx+d][i]
		if i == d {
			s.pool.For(volr, func(lo, hi int) {
				for p := off + lo; p < off+hi; p++ {
					divv := dudx[0][p] + dvdx[1][p] + dwdx[2][p]
					tau := mu*(gi[p]+gd[p]) - (2.0/3.0)*mu*divv
					s.fx[p] -= tau
				}
			})
		} else {
			s.pool.For(volr, func(lo, hi int) {
				for p := off + lo; p < off+hi; p++ {
					s.fx[p] -= mu * (gi[p] + gd[p])
				}
			})
		}
	case c == IEnergy:
		// Work of the stress plus heat conduction:
		// F_visc,E[d] = sum_i v_i tau_{i,d} + kappa dT/dx_d.
		gT := s.gradD[gradT][d]
		s.pool.For(volr, func(lo, hi int) {
			for p := off + lo; p < off+hi; p++ {
				divv := dudx[0][p] + dvdx[1][p] + dwdx[2][p]
				var work float64
				for i := 0; i < 3; i++ {
					tau := mu * (s.gradD[gradVx+i][d][p] + s.gradD[gradVx+d][i][p])
					if i == d {
						tau -= (2.0 / 3.0) * mu * divv
					}
					work += s.velP[i][p] * tau
				}
				s.fx[p] -= work + kappa*gT[p]
			}
		})
	}
	s.chargeCompute(sem.OpCount{Mul: int64(volr) * 6, Add: int64(volr) * 6,
		Load: int64(volr) * 8, Store: int64(volr)}, pointwiseTraits)
}
