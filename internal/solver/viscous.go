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
// Being element-local, they are formed per element in the volume pass
// and, for a flux trace a lift reads before that pass runs, at the
// face's points in the face pass, with the volume's bits; the schedule
// bills them as the whole-rank sweeps they replace, before any pass.

// numGradQ is the number of differentiated quantities: vx, vy, vz, T.
const numGradQ = 4

// gradOf is the gradient of quantity q along direction d in the
// gradient scratch vis of m points an array (elemGradients' layout).
func gradOf(vis []float64, q, d, m int) []float64 { return vis[(1+3*q+d)*m:][:m] }

// elemGradients forms in vis (13 N^3 values: T, then the gradients of
// vx, vy, vz and T along x, y, z) the stress tensor and heat flux of the
// element whose density, velocity and pressure are rho, vel and pr.
func (s *Solver) elemGradients(vis, rho []float64, vel [3][]float64, pr []float64, sl *volSlot) {
	n3 := len(rho)
	// Temperature with the gas constant R = 1: T = p / rho.
	t := vis[:n3]
	temperature(pr, rho, t)
	sl.lap(volTemp)
	src := [numGradQ][]float64{vel[0], vel[1], vel[2], t}
	for d := 0; d < 3; d++ {
		for q, u := range src {
			s.kern.Apply(sem.Direction(d), u, gradOf(vis, q, d, n3))
		}
		sl.lap(volGradR + d)
	}
	s.viscousTerms(vis, n3)
	sl.lap(volFlux)
}

// viscousTerms turns the gradients in vis (elemGradients' layout, m
// points an array) into the stress tensor and the heat flux, in place.
func (s *Solver) viscousTerms(vis []float64, m int) {
	// Constant metric: d/dx = rx * d/dr.
	scaleBy(vis[m:(1+3*numGradQ)*m], s.rx)
	// tau_{i,d} = mu (dv_i/dx_d + dv_d/dx_i) - (2/3) mu div(v) delta_{i,d}
	// over dv_i/dx_d, symmetric bit for bit (IEEE + is commutative).
	mu := s.Cfg.Mu
	g := func(i, d int) []float64 { return gradOf(vis, i, d, m) }
	stress(g(0, 0), g(0, 1), g(0, 2), g(1, 0), g(1, 1), g(1, 2), g(2, 0), g(2, 1), g(2, 2), mu, (2.0/3.0)*mu)
	// The heat flux over dT/dx_d, with the Fourier conductivity
	// kappa = mu * cp / Pr, cp = Gamma/(Gamma-1) and R = 1.
	kappa := mu * Gamma / (Gamma - 1) / s.Cfg.Pr
	scaleBy(vis[(1+3*3)*m:(1+3*numGradQ)*m], kappa)
}

// subViscousFlux subtracts the viscous flux of conserved variable c
// along direction d from f, the Euler flux of points whose velocity is
// vel and whose stress and heat flux viscousTerms left in vis.
func (s *Solver) subViscousFlux(c, d int, vel [3][]float64, vis, f []float64) {
	m := len(f)
	if c != IEnergy {
		subtractFlux(f, gradOf(vis, c-IMomX, d, m))
		return
	}
	// The stress's work plus the heat flux, summed from +0 (which
	// decides the sign of a zero).
	subtractEnergyFlux(f, vel[0], vel[1], vel[2], gradOf(vis, 0, d, m), gradOf(vis, 1, d, m), gradOf(vis, 2, d, m), gradOf(vis, 3, d, m))
}

// elemPrimitives forms element e's velocity, temperature and pressure in
// prim (5 N^3 values: vx, vy, vz, T, p) with the volume pass's kernels.
func (s *Solver) elemPrimitives(e int, prim []float64) {
	n3 := s.Cfg.N * s.Cfg.N * s.Cfg.N
	in, base := s.in, e*n3
	rho, pr := in[IRho][base:][:n3], prim[4*n3:][:n3]
	primitives(rho, in[IMomX][base:][:n3], in[IMomY][base:][:n3], in[IMomZ][base:][:n3], in[IEnergy][base:][:n3], prim[:n3], prim[n3:][:n3], prim[2*n3:][:n3], pr)
	temperature(pr, rho, prim[3*n3:][:n3])
}

// faceViscousFlux forms into fl the flux traces of face f of an element
// whose primitives are prim and whose state traces are st, with scratch
// scr (23 N^2 values), on slot sl's stopwatch: the volume pass's flux
// normal to the face at its points, bit for bit (FaceApply's derivatives
// are the volume's there; every other kernel is pointwise). Of the
// gradients it forms the eight that flux reads; the other four are
// zeros, which reach only stress and heat-flux components it ignores.
func (s *Solver) faceViscousFlux(f int, prim []float64, st *faceSlabs, scr []float64, fl *faceSlabs, sl *volSlot) {
	n := s.Cfg.N
	n2, n3 := n*n, n*n*n
	d := sem.FaceDir(f)
	// Scratch: the gradients, the face's velocity and pressure,
	// FaceApply's scratch, the flux along each direction.
	vis := scr[:(1+3*numGradQ)*n2]
	var w, fx faceSlabs
	fx.lay(w.lay(scr[len(vis):], n2), n2)
	vel, pr, tmp := [3][]float64{w[0], w[1], w[2]}, w[3], w[4]
	primitives(st[IRho], st[IMomX], st[IMomY], st[IMomZ], st[IEnergy], vel[0], vel[1], vel[2], pr)
	sl.lap(volPrim)
	for dd := 0; dd < 3; dd++ {
		for q := 0; q < numGradQ; q++ {
			switch g := gradOf(vis, q, dd, n2); {
			case dd == d:
				s.kern.FaceApply(sem.Direction(dd), f, prim[q*n3:][:n3], nil, g, tmp)
			case q == d || q == dd: // a velocity, within the face
				s.kern.FaceApply(sem.Direction(dd), f, nil, vel[q], g, tmp)
			default:
				clear(g)
			}
		}
		sl.lap(volGradR + dd)
	}
	s.viscousTerms(vis, n2)
	copy(fl[IRho], st[IMomX+d]) // the mass flux: the momentum
	for c := IMomX; c < NumFields; c++ {
		f3 := [3][]float64{fx[0], fx[1], fx[2]}
		f3[d] = fl[c]
		if c == IEnergy {
			energyFlux(st[c], pr, vel[0], vel[1], vel[2], f3[0], f3[1], f3[2])
		} else {
			momentumFlux[c-IMomX](st[c], vel[0], vel[1], vel[2], pr, f3[0], f3[1], f3[2])
		}
		s.subViscousFlux(c, d, vel, vis, fl[c])
	}
	sl.lap(volFlux)
}
