package solver

import (
	"time"

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
// Being element-local, they are formed per element in the volume pass's
// slot scratch (elemGradients); the model is charged for them as the
// whole-rank sweeps they replace (computeGradients).

// numGradQ is the number of differentiated quantities: vx, vy, vz, T.
const numGradQ = 4

// gradOf is the gradient of quantity q along direction d in
// elemGradients' scratch vis.
func gradOf(vis []float64, q, d, n3 int) []float64 { return vis[(1+3*q+d)*n3:][:n3] }

// gradBill carries the gradient from computeGradients, which charges it,
// to settleGradients, which reports it: the virtual extent of each
// charge (T, then the twelve derivatives), the wall the volume runs timed
// for its stages, and the first run's start.
type gradBill struct {
	vt    [1 + 3*numGradQ][2]float64
	start time.Time
	wall  [numVolStages]time.Duration
}

// computeGradients charges the model for one right-hand side's gradient
// where and as the whole-rank sweeps it replaces did: T = p/rho under
// compute_primitive, the twelve derivatives (per direction, with the
// Basic counts and traits, whatever the grouping), then the rx scale.
func (s *Solver) computeGradients() {
	vol, b, clock := int64(len(s.prP)), &s.grad, s.Rank.Clock()
	b.start, b.wall = time.Time{}, [numVolStages]time.Duration{}
	prev := clock.SetPhase(obs.PhaseOf("compute_primitive", obs.CatKernel)) // the phase of every kernel region
	for k := range b.vt {
		b.vt[k][0] = clock.Now()
		if k == 0 {
			s.chargeCompute(sem.OpCount{Mul: vol, Load: 2 * vol, Store: vol}, pointwiseTraits)
		} else { // k-1 = 3*quantity + direction
			s.chargeCompute(sem.DerivOps(s.Ref.N, s.Local.Nel), s.derivTraits[(k-1)%3])
		}
		b.vt[k][1] = clock.Now()
	}
	clock.SetPhase(prev)
	s.chargeCompute(sem.OpCount{Mul: vol * numGradQ * 3,
		Load: vol * numGradQ * 3, Store: vol * numGradQ * 3}, pointwiseTraits)
}

// settleGradients reports what computeGradients charged, with the wall
// of the stages' shares the volume runs left at their starts, tiled from
// the first run's start (with overlap the two runs' shares, summed, run
// into the boundary run's other calls): one compute_primitive call, then
// one ax_grad3_fused call (the name and count Figure 4 and the goldens
// record) or, for Basic, the paper's untransformed ablation point, one
// ax_deriv_* call per sweep.
func (s *Solver) settleGradients() {
	b := &s.grad
	at := b.start
	if at.IsZero() { // no element ran
		at = time.Now()
	}
	add := func(name string, dur time.Duration, vt0, vt1 float64) {
		s.Rec.Add(name, obs.CatKernel, at, dur, vt0, vt1)
		at = at.Add(dur)
	}
	add("compute_primitive", b.wall[volTemp], b.vt[0][0], b.vt[0][1])
	if s.Cfg.Variant == sem.Optimized {
		add("ax_grad3_fused", b.wall[volGradR]+b.wall[volGradS]+b.wall[volGradT], b.vt[1][0], b.vt[3*numGradQ][1])
		return
	}
	for k := 1; k <= 3*numGradQ; k++ {
		d := (k - 1) % 3
		add(derivRegion[d], b.wall[volGradR+d]/numGradQ, b.vt[k][0], b.vt[k][1])
	}
}

// elemGradients forms in vis (13 N^3 values: T, then the gradients of
// vx, vy, vz and T along x, y, z) the stress tensor and heat flux of the
// element whose first point is base and whose density is rho, lapping
// each stage. Every per-point expression is the whole-rank sweeps', so
// the bits are theirs.
func (s *Solver) elemGradients(vis []float64, kern *sem.ElemDeriv, rho []float64, base int, lap func(int)) {
	n3 := len(rho)
	// Temperature with the gas constant R = 1: T = p / rho.
	t, pr := vis[:n3], s.prP[base:base+n3]
	for i := range t {
		t[i] = pr[i] / rho[i]
	}
	lap(volTemp)
	src := [numGradQ][]float64{s.velP[0][base : base+n3], s.velP[1][base : base+n3], s.velP[2][base : base+n3], t}
	for d := 0; d < 3; d++ {
		for q, u := range src {
			kern.Apply(sem.Direction(d), u, gradOf(vis, q, d, n3))
		}
		lap(volGradR + d)
	}
	// Constant metric: d/dx = rx * d/dr.
	grads := vis[n3 : (1+3*numGradQ)*n3]
	for i := range grads {
		grads[i] *= s.rx
	}
	lap(volRest)

	// tau_{i,d} = mu (dv_i/dx_d + dv_d/dx_i) - (2/3) mu div(v) delta_{i,d}
	// over dv_i/dx_d, symmetric bit for bit (IEEE + is commutative).
	mu := s.Cfg.Mu
	divv, dudx, dvdy, dwdz := t, gradOf(vis, 0, 0, n3), gradOf(vis, 1, 1, n3), gradOf(vis, 2, 2, n3)
	for p := range divv {
		divv[p] = dudx[p] + dvdy[p] + dwdz[p]
	}
	for i := 0; i < 3; i++ {
		for d := i; d < 3; d++ {
			gid, gdi := gradOf(vis, i, d, n3), gradOf(vis, d, i, n3)
			for p := range gid {
				tau := mu * (gid[p] + gdi[p])
				if i == d {
					tau -= (2.0 / 3.0) * mu * divv[p]
				}
				gid[p], gdi[p] = tau, tau
			}
		}
	}
	// The heat flux over dT/dx_d, with the Fourier conductivity
	// kappa = mu * cp / Pr, cp = Gamma/(Gamma-1) and R = 1.
	kappa := mu * Gamma / (Gamma - 1) / s.Cfg.Pr
	heat := vis[(1+3*3)*n3 : (1+3*numGradQ)*n3]
	for p := range heat {
		heat[p] = kappa * heat[p]
	}
	lap(volFlux)
}

// subViscousFlux subtracts the viscous flux of conserved variable c (a
// momentum component or the energy) along direction d from f, which
// holds the Euler flux of the element whose first point is base and
// whose stress and heat flux elemGradients left in vis.
func (s *Solver) subViscousFlux(c, d, base int, vis, f []float64) {
	n3 := len(f)
	if c != IEnergy {
		tau := gradOf(vis, c-IMomX, d, n3)
		for p := range f {
			f[p] -= tau[p]
		}
		return
	}
	// The stress's work plus the heat flux, summed from +0 (which
	// decides the sign of a zero).
	t0, t1, t2, q := gradOf(vis, 0, d, n3), gradOf(vis, 1, d, n3), gradOf(vis, 2, d, n3), gradOf(vis, 3, d, n3)
	v0, v1, v2 := s.velP[0][base:base+n3], s.velP[1][base:base+n3], s.velP[2][base:base+n3]
	for p := range f {
		var work float64
		work += v0[p] * t0[p]
		work += v1[p] * t1[p]
		work += v2[p] * t2[p]
		f[p] -= work + q[p]
	}
}
