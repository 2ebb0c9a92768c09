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
	reg := s.Rec.Region("compute_primitive", obs.CatKernel)
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
	reg.End()

	if s.Cfg.Variant == sem.Optimized {
		// One region for all twelve sweeps: Grad3FusedPool runs the three
		// DerivPool(Optimized) sweeps per quantity, the same kernels the
		// flux divergence uses. The region name and its one call per RHS
		// are what Figure 4 and the volume/surface goldens record. The hw
		// model is charged per direction with the counts and traits the
		// Basic branch reports, so modeled time does not depend on the
		// grouping.
		reg := s.Rec.Region("ax_grad3_fused", obs.CatKernel)
		for q := 0; q < numGradQ; q++ {
			sem.Grad3FusedPool(s.pool, s.Ref, s.gradQ[q],
				s.gradD[q][0], s.gradD[q][1], s.gradD[q][2], nel)
			for d := 0; d < 3; d++ {
				s.chargeCompute(sem.DerivOps(s.Ref.N, nel), s.derivTraits[d])
			}
		}
		reg.End()
	} else {
		// The Basic variant is the paper's untransformed ablation point:
		// one ax_deriv_* region per (quantity, direction) sweep.
		for q := 0; q < numGradQ; q++ {
			for d := 0; d < 3; d++ {
				dir := sem.Direction(d)
				reg := s.Rec.Region(derivRegion[d], obs.CatKernel)
				ops := sem.DerivPool(s.pool, dir, s.Cfg.Variant, s.Ref, s.gradQ[q], s.gradD[q][d], nel)
				s.chargeCompute(ops, s.derivTraits[d])
				reg.End()
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

// subViscousFlux subtracts the viscous flux of conserved variable c (a
// momentum component or the energy) along direction d from f, which
// holds the Euler flux of the element whose first point is base.
// Requires computeGradients.
func (s *Solver) subViscousFlux(c, d, base int, f []float64) {
	mu := s.Cfg.Mu
	dudx := s.gradD[gradVx][0][base:]
	dvdy := s.gradD[gradVy][1][base:]
	dwdz := s.gradD[gradVz][2][base:]

	if c != IEnergy {
		i := c - IMomX // stress row
		// tau_{i,d} = mu (dv_i/dx_d + dv_d/dx_i) - (2/3) mu div(v) delta_{i,d}
		gi := s.gradD[gradVx+i][d][base:]
		gd := s.gradD[gradVx+d][i][base:]
		if i == d {
			for p := range f {
				divv := dudx[p] + dvdy[p] + dwdz[p]
				tau := mu*(gi[p]+gd[p]) - (2.0/3.0)*mu*divv
				f[p] -= tau
			}
		} else {
			for p := range f {
				f[p] -= mu * (gi[p] + gd[p])
			}
		}
		return
	}
	// Work of the stress plus heat conduction:
	// F_visc,E[d] = sum_i v_i tau_{i,d} + kappa dT/dx_d, with the Fourier
	// conductivity kappa = mu * cp / Pr, cp = Gamma/(Gamma-1) and R = 1.
	kappa := mu * Gamma / (Gamma - 1) / s.Cfg.Pr
	gT := s.gradD[gradT][d][base:]
	for p := range f {
		q := base + p
		divv := dudx[p] + dvdy[p] + dwdz[p]
		var work float64
		for i := 0; i < 3; i++ {
			tau := mu * (s.gradD[gradVx+i][d][q] + s.gradD[gradVx+d][i][q])
			if i == d {
				tau -= (2.0 / 3.0) * mu * divv
			}
			work += s.velP[i][q] * tau
		}
		f[p] -= work + kappa*gT[p]
	}
}
