// Code generated by repro/internal/sem/gen (pointwise kernels: Go-only wrappers). DO NOT EDIT.

//go:build !amd64 || semnoasm || race

package solver

// primitives computes the velocity v = m/rho and the ideal-gas pressure pr = (Gamma-1)(E - |m.v|/2).
func primitives(rho, mx, my, mz, en, v0, v1, v2, pr []float64) {
	primitivesGo(rho, mx, my, mz, en, v0, v1, v2, pr, 1, Gamma-1, 0.5)
}

// energyFlux computes the energy flux f_d = v_d (E + p).
func energyFlux(en, pr, v0, v1, v2, f0, f1, f2 []float64) {
	energyFluxGo(en, pr, v0, v1, v2, f0, f1, f2)
}

// momentumFluxX computes the flux f_d = u v_d (+ p for d = 0) of momentum component u.
func momentumFluxX(u, v0, v1, v2, pr, f0, f1, f2 []float64) {
	momentumFluxXGo(u, v0, v1, v2, pr, f0, f1, f2)
}

// momentumFluxY computes the flux f_d = u v_d (+ p for d = 1) of momentum component u.
func momentumFluxY(u, v0, v1, v2, pr, f0, f1, f2 []float64) {
	momentumFluxYGo(u, v0, v1, v2, pr, f0, f1, f2)
}

// momentumFluxZ computes the flux f_d = u v_d (+ p for d = 2) of momentum component u.
func momentumFluxZ(u, v0, v1, v2, pr, f0, f1, f2 []float64) {
	momentumFluxZGo(u, v0, v1, v2, pr, f0, f1, f2)
}

// divergence computes r = -(rx g0 + rx g1 + rx g2), summed from +0.
func divergence(g0, g1, g2, r []float64, rx float64) { divergenceGo(g0, g1, g2, r, rx) }

// rkStage1 computes u1 = U + dt r.
func rkStage1(u, r, u1 []float64, dt float64) { rkStage1Go(u, r, u1, dt) }

// rkStage2 computes u1 = 3/4 U + 1/4 (u1 + dt r), in place.
func rkStage2(u, r, u1 []float64, dt float64) { rkStage2Go(u, r, u1, dt, 0.75, 0.25) }

// rkStage3 computes U = U/3 + 2/3 (u1 + dt r), in place.
func rkStage3(u, r, u1 []float64, dt float64) { rkStage3Go(u, r, u1, dt, 3, 2.0/3.0) }

// liftPair computes w = scale (sign (fc - (fc+fo)/2) - lam (uc - (uc+uo)/2)) for a face paired on the rank.
func liftPair(fc, uc, fo, uo, w []float64, scale, sign, lam float64) {
	liftPairGo(fc, uc, fo, uo, w, scale, sign, lam, 0.5)
}

// liftBoundary computes w = scale (sign (fc - fsum/2) - lam (uc - usum/2)) for a rank-boundary face.
func liftBoundary(fc, uc, fsum, usum, w []float64, scale, sign, lam float64) {
	liftBoundaryGo(fc, uc, fsum, usum, w, scale, sign, lam, 0.5)
}

// surfaceFluxX computes the Euler flux along direction 0 of the conserved state (rho, m, E), all five fields.
func surfaceFluxX(rho, mx, my, mz, en, f0, f1, f2, f3, f4 []float64) {
	surfaceFluxXGo(rho, mx, my, mz, en, f0, f1, f2, f3, f4, 1, Gamma-1, 0.5)
}

// surfaceFluxY computes the Euler flux along direction 1 of the conserved state (rho, m, E), all five fields.
func surfaceFluxY(rho, mx, my, mz, en, f0, f1, f2, f3, f4 []float64) {
	surfaceFluxYGo(rho, mx, my, mz, en, f0, f1, f2, f3, f4, 1, Gamma-1, 0.5)
}

// surfaceFluxZ computes the Euler flux along direction 2 of the conserved state (rho, m, E), all five fields.
func surfaceFluxZ(rho, mx, my, mz, en, f0, f1, f2, f3, f4 []float64) {
	surfaceFluxZGo(rho, mx, my, mz, en, f0, f1, f2, f3, f4, 1, Gamma-1, 0.5)
}

// temperature computes the temperature T = p/rho (gas constant 1).
func temperature(pr, rho, t []float64) { temperatureGo(pr, rho, t) }

// scaleBy computes x = x c, in place.
func scaleBy(x []float64, c float64) { scaleByGo(x, c) }

// stress computes the Newtonian stress mu (g_id + g_di) - (2/3) mu div(v) delta_id over the velocity gradient g_id = dv_i/dx_d, in place.
func stress(g00, g01, g02, g10, g11, g12, g20, g21, g22 []float64, mu, c23mu float64) {
	stressGo(g00, g01, g02, g10, g11, g12, g20, g21, g22, mu, c23mu)
}

// subtractFlux computes f = f - tau, in place.
func subtractFlux(f, tau []float64) { subtractFluxGo(f, tau) }

// subtractEnergyFlux computes f = f - (v.t + q), the stress's work summed from +0, in place.
func subtractEnergyFlux(f, v0, v1, v2, t0, t1, t2, q []float64) {
	subtractEnergyFluxGo(f, v0, v1, v2, t0, t1, t2, q)
}
