// Code generated by repro/internal/sem/gen (pointwise kernels: AVX2 wrappers and declarations). DO NOT EDIT.

//go:build amd64 && !semnoasm && !race

package solver

import "repro/internal/sem"

// pwSIMD reports whether the AVX2 loops run: each wrapper hands them the
// largest multiple of four points and its Go loop the rest.
var pwSIMD = sem.HasSIMD()

// primitives computes the velocity v = m/rho and the ideal-gas pressure pr = (Gamma-1)(E - |m.v|/2).
func primitives(rho, mx, my, mz, en, v0, v1, v2, pr []float64) {
	n := len(rho)
	mx, my, mz, en, v0, v1, v2, pr = mx[:n], my[:n], mz[:n], en[:n], v0[:n], v1[:n], v2[:n], pr[:n]
	m := 0
	if pwSIMD && n >= 4 {
		m = n &^ 3
		primitivesAVX2(&rho[0], &mx[0], &my[0], &mz[0], &en[0], &v0[0], &v1[0], &v2[0], &pr[0], 1, Gamma-1, 0.5, m)
	}
	primitivesGo(rho[m:], mx[m:], my[m:], mz[m:], en[m:], v0[m:], v1[m:], v2[m:], pr[m:], 1, Gamma-1, 0.5)
}

// primitivesAVX2 is primitives's AVX2 loop over the first n&^3 points.
//
//go:noescape
func primitivesAVX2(rho, mx, my, mz, en, v0, v1, v2, pr *float64, one, gm1, half float64, n int)

// energyFlux computes the energy flux f_d = v_d (E + p).
func energyFlux(en, pr, v0, v1, v2, f0, f1, f2 []float64) {
	n := len(en)
	pr, v0, v1, v2, f0, f1, f2 = pr[:n], v0[:n], v1[:n], v2[:n], f0[:n], f1[:n], f2[:n]
	m := 0
	if pwSIMD && n >= 4 {
		m = n &^ 3
		energyFluxAVX2(&en[0], &pr[0], &v0[0], &v1[0], &v2[0], &f0[0], &f1[0], &f2[0], m)
	}
	energyFluxGo(en[m:], pr[m:], v0[m:], v1[m:], v2[m:], f0[m:], f1[m:], f2[m:])
}

// energyFluxAVX2 is energyFlux's AVX2 loop over the first n&^3 points.
//
//go:noescape
func energyFluxAVX2(en, pr, v0, v1, v2, f0, f1, f2 *float64, n int)

// momentumFluxX computes the flux f_d = u v_d (+ p for d = 0) of momentum component u.
func momentumFluxX(u, v0, v1, v2, pr, f0, f1, f2 []float64) {
	n := len(u)
	v0, v1, v2, pr, f0, f1, f2 = v0[:n], v1[:n], v2[:n], pr[:n], f0[:n], f1[:n], f2[:n]
	m := 0
	if pwSIMD && n >= 4 {
		m = n &^ 3
		momentumFluxXAVX2(&u[0], &v0[0], &v1[0], &v2[0], &pr[0], &f0[0], &f1[0], &f2[0], m)
	}
	momentumFluxXGo(u[m:], v0[m:], v1[m:], v2[m:], pr[m:], f0[m:], f1[m:], f2[m:])
}

// momentumFluxXAVX2 is momentumFluxX's AVX2 loop over the first n&^3 points.
//
//go:noescape
func momentumFluxXAVX2(u, v0, v1, v2, pr, f0, f1, f2 *float64, n int)

// momentumFluxY computes the flux f_d = u v_d (+ p for d = 1) of momentum component u.
func momentumFluxY(u, v0, v1, v2, pr, f0, f1, f2 []float64) {
	n := len(u)
	v0, v1, v2, pr, f0, f1, f2 = v0[:n], v1[:n], v2[:n], pr[:n], f0[:n], f1[:n], f2[:n]
	m := 0
	if pwSIMD && n >= 4 {
		m = n &^ 3
		momentumFluxYAVX2(&u[0], &v0[0], &v1[0], &v2[0], &pr[0], &f0[0], &f1[0], &f2[0], m)
	}
	momentumFluxYGo(u[m:], v0[m:], v1[m:], v2[m:], pr[m:], f0[m:], f1[m:], f2[m:])
}

// momentumFluxYAVX2 is momentumFluxY's AVX2 loop over the first n&^3 points.
//
//go:noescape
func momentumFluxYAVX2(u, v0, v1, v2, pr, f0, f1, f2 *float64, n int)

// momentumFluxZ computes the flux f_d = u v_d (+ p for d = 2) of momentum component u.
func momentumFluxZ(u, v0, v1, v2, pr, f0, f1, f2 []float64) {
	n := len(u)
	v0, v1, v2, pr, f0, f1, f2 = v0[:n], v1[:n], v2[:n], pr[:n], f0[:n], f1[:n], f2[:n]
	m := 0
	if pwSIMD && n >= 4 {
		m = n &^ 3
		momentumFluxZAVX2(&u[0], &v0[0], &v1[0], &v2[0], &pr[0], &f0[0], &f1[0], &f2[0], m)
	}
	momentumFluxZGo(u[m:], v0[m:], v1[m:], v2[m:], pr[m:], f0[m:], f1[m:], f2[m:])
}

// momentumFluxZAVX2 is momentumFluxZ's AVX2 loop over the first n&^3 points.
//
//go:noescape
func momentumFluxZAVX2(u, v0, v1, v2, pr, f0, f1, f2 *float64, n int)

// divergence computes r = -(rx g0 + rx g1 + rx g2), summed from +0.
func divergence(g0, g1, g2, r []float64, rx float64) {
	n := len(g0)
	g1, g2, r = g1[:n], g2[:n], r[:n]
	m := 0
	if pwSIMD && n >= 4 {
		m = n &^ 3
		divergenceAVX2(&g0[0], &g1[0], &g2[0], &r[0], rx, m)
	}
	divergenceGo(g0[m:], g1[m:], g2[m:], r[m:], rx)
}

// divergenceAVX2 is divergence's AVX2 loop over the first n&^3 points.
//
//go:noescape
func divergenceAVX2(g0, g1, g2, r *float64, rx float64, n int)

// rkStage1 computes u1 = U + dt r.
func rkStage1(u, r, u1 []float64, dt float64) {
	n := len(u)
	r, u1 = r[:n], u1[:n]
	m := 0
	if pwSIMD && n >= 4 {
		m = n &^ 3
		rkStage1AVX2(&u[0], &r[0], &u1[0], dt, m)
	}
	rkStage1Go(u[m:], r[m:], u1[m:], dt)
}

// rkStage1AVX2 is rkStage1's AVX2 loop over the first n&^3 points.
//
//go:noescape
func rkStage1AVX2(u, r, u1 *float64, dt float64, n int)

// rkStage2 computes u1 = 3/4 U + 1/4 (u1 + dt r), in place.
func rkStage2(u, r, u1 []float64, dt float64) {
	n := len(u)
	r, u1 = r[:n], u1[:n]
	m := 0
	if pwSIMD && n >= 4 {
		m = n &^ 3
		rkStage2AVX2(&u[0], &r[0], &u1[0], dt, 0.75, 0.25, m)
	}
	rkStage2Go(u[m:], r[m:], u1[m:], dt, 0.75, 0.25)
}

// rkStage2AVX2 is rkStage2's AVX2 loop over the first n&^3 points.
//
//go:noescape
func rkStage2AVX2(u, r, u1 *float64, dt, c34, c14 float64, n int)

// rkStage3 computes U = U/3 + 2/3 (u1 + dt r), in place.
func rkStage3(u, r, u1 []float64, dt float64) {
	n := len(u)
	r, u1 = r[:n], u1[:n]
	m := 0
	if pwSIMD && n >= 4 {
		m = n &^ 3
		rkStage3AVX2(&u[0], &r[0], &u1[0], dt, 3, 2.0/3.0, m)
	}
	rkStage3Go(u[m:], r[m:], u1[m:], dt, 3, 2.0/3.0)
}

// rkStage3AVX2 is rkStage3's AVX2 loop over the first n&^3 points.
//
//go:noescape
func rkStage3AVX2(u, r, u1 *float64, dt, three, twoThirds float64, n int)

// liftPair computes w = scale (sign (fc - (fc+fo)/2) - lam (uc - (uc+uo)/2)) for a face paired on the rank.
func liftPair(fc, uc, fo, uo, w []float64, scale, sign, lam float64) {
	n := len(fc)
	uc, fo, uo, w = uc[:n], fo[:n], uo[:n], w[:n]
	m := 0
	if pwSIMD && n >= 4 {
		m = n &^ 3
		liftPairAVX2(&fc[0], &uc[0], &fo[0], &uo[0], &w[0], scale, sign, lam, 0.5, m)
	}
	liftPairGo(fc[m:], uc[m:], fo[m:], uo[m:], w[m:], scale, sign, lam, 0.5)
}

// liftPairAVX2 is liftPair's AVX2 loop over the first n&^3 points.
//
//go:noescape
func liftPairAVX2(fc, uc, fo, uo, w *float64, scale, sign, lam, half float64, n int)

// liftBoundary computes w = scale (sign (fc - fsum/2) - lam (uc - usum/2)) for a rank-boundary face.
func liftBoundary(fc, uc, fsum, usum, w []float64, scale, sign, lam float64) {
	n := len(fc)
	uc, fsum, usum, w = uc[:n], fsum[:n], usum[:n], w[:n]
	m := 0
	if pwSIMD && n >= 4 {
		m = n &^ 3
		liftBoundaryAVX2(&fc[0], &uc[0], &fsum[0], &usum[0], &w[0], scale, sign, lam, 0.5, m)
	}
	liftBoundaryGo(fc[m:], uc[m:], fsum[m:], usum[m:], w[m:], scale, sign, lam, 0.5)
}

// liftBoundaryAVX2 is liftBoundary's AVX2 loop over the first n&^3 points.
//
//go:noescape
func liftBoundaryAVX2(fc, uc, fsum, usum, w *float64, scale, sign, lam, half float64, n int)

// surfaceFluxX computes the Euler flux along direction 0 of the conserved state (rho, m, E), all five fields.
func surfaceFluxX(rho, mx, my, mz, en, f0, f1, f2, f3, f4 []float64) {
	n := len(rho)
	mx, my, mz, en, f0, f1, f2, f3, f4 = mx[:n], my[:n], mz[:n], en[:n], f0[:n], f1[:n], f2[:n], f3[:n], f4[:n]
	m := 0
	if pwSIMD && n >= 4 {
		m = n &^ 3
		surfaceFluxXAVX2(&rho[0], &mx[0], &my[0], &mz[0], &en[0], &f0[0], &f1[0], &f2[0], &f3[0], &f4[0], 1, Gamma-1, 0.5, m)
	}
	surfaceFluxXGo(rho[m:], mx[m:], my[m:], mz[m:], en[m:], f0[m:], f1[m:], f2[m:], f3[m:], f4[m:], 1, Gamma-1, 0.5)
}

// surfaceFluxXAVX2 is surfaceFluxX's AVX2 loop over the first n&^3 points.
//
//go:noescape
func surfaceFluxXAVX2(rho, mx, my, mz, en, f0, f1, f2, f3, f4 *float64, one, gm1, half float64, n int)

// surfaceFluxY computes the Euler flux along direction 1 of the conserved state (rho, m, E), all five fields.
func surfaceFluxY(rho, mx, my, mz, en, f0, f1, f2, f3, f4 []float64) {
	n := len(rho)
	mx, my, mz, en, f0, f1, f2, f3, f4 = mx[:n], my[:n], mz[:n], en[:n], f0[:n], f1[:n], f2[:n], f3[:n], f4[:n]
	m := 0
	if pwSIMD && n >= 4 {
		m = n &^ 3
		surfaceFluxYAVX2(&rho[0], &mx[0], &my[0], &mz[0], &en[0], &f0[0], &f1[0], &f2[0], &f3[0], &f4[0], 1, Gamma-1, 0.5, m)
	}
	surfaceFluxYGo(rho[m:], mx[m:], my[m:], mz[m:], en[m:], f0[m:], f1[m:], f2[m:], f3[m:], f4[m:], 1, Gamma-1, 0.5)
}

// surfaceFluxYAVX2 is surfaceFluxY's AVX2 loop over the first n&^3 points.
//
//go:noescape
func surfaceFluxYAVX2(rho, mx, my, mz, en, f0, f1, f2, f3, f4 *float64, one, gm1, half float64, n int)

// surfaceFluxZ computes the Euler flux along direction 2 of the conserved state (rho, m, E), all five fields.
func surfaceFluxZ(rho, mx, my, mz, en, f0, f1, f2, f3, f4 []float64) {
	n := len(rho)
	mx, my, mz, en, f0, f1, f2, f3, f4 = mx[:n], my[:n], mz[:n], en[:n], f0[:n], f1[:n], f2[:n], f3[:n], f4[:n]
	m := 0
	if pwSIMD && n >= 4 {
		m = n &^ 3
		surfaceFluxZAVX2(&rho[0], &mx[0], &my[0], &mz[0], &en[0], &f0[0], &f1[0], &f2[0], &f3[0], &f4[0], 1, Gamma-1, 0.5, m)
	}
	surfaceFluxZGo(rho[m:], mx[m:], my[m:], mz[m:], en[m:], f0[m:], f1[m:], f2[m:], f3[m:], f4[m:], 1, Gamma-1, 0.5)
}

// surfaceFluxZAVX2 is surfaceFluxZ's AVX2 loop over the first n&^3 points.
//
//go:noescape
func surfaceFluxZAVX2(rho, mx, my, mz, en, f0, f1, f2, f3, f4 *float64, one, gm1, half float64, n int)

// temperature computes the temperature T = p/rho (gas constant 1).
func temperature(pr, rho, t []float64) {
	n := len(pr)
	rho, t = rho[:n], t[:n]
	m := 0
	if pwSIMD && n >= 4 {
		m = n &^ 3
		temperatureAVX2(&pr[0], &rho[0], &t[0], m)
	}
	temperatureGo(pr[m:], rho[m:], t[m:])
}

// temperatureAVX2 is temperature's AVX2 loop over the first n&^3 points.
//
//go:noescape
func temperatureAVX2(pr, rho, t *float64, n int)

// scaleBy computes x = x c, in place.
func scaleBy(x []float64, c float64) {
	n := len(x)
	m := 0
	if pwSIMD && n >= 4 {
		m = n &^ 3
		scaleByAVX2(&x[0], c, m)
	}
	scaleByGo(x[m:], c)
}

// scaleByAVX2 is scaleBy's AVX2 loop over the first n&^3 points.
//
//go:noescape
func scaleByAVX2(x *float64, c float64, n int)

// stress computes the Newtonian stress mu (g_id + g_di) - (2/3) mu div(v) delta_id over the velocity gradient g_id = dv_i/dx_d, in place.
func stress(g00, g01, g02, g10, g11, g12, g20, g21, g22 []float64, mu, c23mu float64) {
	n := len(g00)
	g01, g02, g10, g11, g12, g20, g21, g22 = g01[:n], g02[:n], g10[:n], g11[:n], g12[:n], g20[:n], g21[:n], g22[:n]
	m := 0
	if pwSIMD && n >= 4 {
		m = n &^ 3
		stressAVX2(&g00[0], &g01[0], &g02[0], &g10[0], &g11[0], &g12[0], &g20[0], &g21[0], &g22[0], mu, c23mu, m)
	}
	stressGo(g00[m:], g01[m:], g02[m:], g10[m:], g11[m:], g12[m:], g20[m:], g21[m:], g22[m:], mu, c23mu)
}

// stressAVX2 is stress's AVX2 loop over the first n&^3 points.
//
//go:noescape
func stressAVX2(g00, g01, g02, g10, g11, g12, g20, g21, g22 *float64, mu, c23mu float64, n int)

// subtractFlux computes f = f - tau, in place.
func subtractFlux(f, tau []float64) {
	n := len(f)
	tau = tau[:n]
	m := 0
	if pwSIMD && n >= 4 {
		m = n &^ 3
		subtractFluxAVX2(&f[0], &tau[0], m)
	}
	subtractFluxGo(f[m:], tau[m:])
}

// subtractFluxAVX2 is subtractFlux's AVX2 loop over the first n&^3 points.
//
//go:noescape
func subtractFluxAVX2(f, tau *float64, n int)

// subtractEnergyFlux computes f = f - (v.t + q), the stress's work summed from +0, in place.
func subtractEnergyFlux(f, v0, v1, v2, t0, t1, t2, q []float64) {
	n := len(f)
	v0, v1, v2, t0, t1, t2, q = v0[:n], v1[:n], v2[:n], t0[:n], t1[:n], t2[:n], q[:n]
	m := 0
	if pwSIMD && n >= 4 {
		m = n &^ 3
		subtractEnergyFluxAVX2(&f[0], &v0[0], &v1[0], &v2[0], &t0[0], &t1[0], &t2[0], &q[0], m)
	}
	subtractEnergyFluxGo(f[m:], v0[m:], v1[m:], v2[m:], t0[m:], t1[m:], t2[m:], q[m:])
}

// subtractEnergyFluxAVX2 is subtractEnergyFlux's AVX2 loop over the first n&^3 points.
//
//go:noescape
func subtractEnergyFluxAVX2(f, v0, v1, v2, t0, t1, t2, q *float64, n int)
