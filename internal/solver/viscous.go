package solver

import "repro/internal/sem"

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
// Being element-local, they are formed per element in the volume pass's
// slot scratch (elemGradients); the charge schedule bills them as the
// whole-rank sweeps they replace, before the first pass.

// numGradQ is the number of differentiated quantities: vx, vy, vz, T.
const numGradQ = 4

// gradOf is the gradient of quantity q along direction d in
// elemGradients' scratch vis.
func gradOf(vis []float64, q, d, n3 int) []float64 { return vis[(1+3*q+d)*n3:][:n3] }

// elemGradients forms in vis (13 N^3 values: T, then the gradients of
// vx, vy, vz and T along x, y, z) the stress tensor and heat flux of the
// element whose density, velocity and pressure are rho, vel and pr,
// lapping each stage on sl. Every per-point expression is the whole-rank
// sweeps', so the bits are theirs.
func (s *Solver) elemGradients(vis []float64, kern *sem.ElemDeriv, rho []float64, vel [3][]float64, pr []float64, sl *volSlot) {
	n3 := len(rho)
	// Temperature with the gas constant R = 1: T = p / rho.
	t := vis[:n3]
	temperature(pr, rho, t)
	sl.lap(volTemp)
	src := [numGradQ][]float64{vel[0], vel[1], vel[2], t}
	for d := 0; d < 3; d++ {
		for q, u := range src {
			kern.Apply(sem.Direction(d), u, gradOf(vis, q, d, n3))
		}
		sl.lap(volGradR + d)
	}
	// Constant metric: d/dx = rx * d/dr.
	scaleBy(vis[n3:(1+3*numGradQ)*n3], s.rx)
	sl.lap(volRest)

	// tau_{i,d} = mu (dv_i/dx_d + dv_d/dx_i) - (2/3) mu div(v) delta_{i,d}
	// over dv_i/dx_d, symmetric bit for bit (IEEE + is commutative).
	mu := s.Cfg.Mu
	g := func(i, d int) []float64 { return gradOf(vis, i, d, n3) }
	stress(g(0, 0), g(0, 1), g(0, 2), g(1, 0), g(1, 1), g(1, 2), g(2, 0), g(2, 1), g(2, 2), mu, (2.0/3.0)*mu)
	// The heat flux over dT/dx_d, with the Fourier conductivity
	// kappa = mu * cp / Pr, cp = Gamma/(Gamma-1) and R = 1.
	kappa := mu * Gamma / (Gamma - 1) / s.Cfg.Pr
	scaleBy(vis[(1+3*3)*n3:(1+3*numGradQ)*n3], kappa)
	sl.lap(volFlux)
}

// subViscousFlux subtracts the viscous flux of conserved variable c (a
// momentum component or the energy) along direction d from f, which
// holds the Euler flux of the element whose velocity is vel and whose
// stress and heat flux elemGradients left in vis.
func (s *Solver) subViscousFlux(c, d int, vel [3][]float64, vis, f []float64) {
	n3 := len(f)
	if c != IEnergy {
		subtractFlux(f, gradOf(vis, c-IMomX, d, n3))
		return
	}
	// The stress's work plus the heat flux, summed from +0 (which
	// decides the sign of a zero).
	subtractEnergyFlux(f, vel[0], vel[1], vel[2], gradOf(vis, 0, d, n3), gradOf(vis, 1, d, n3), gradOf(vis, 2, d, n3), gradOf(vis, 3, d, n3))
}
