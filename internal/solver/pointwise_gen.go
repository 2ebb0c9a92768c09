// Code generated by repro/internal/sem/gen (pointwise kernels: Go loops). DO NOT EDIT.

package solver

// primitivesGo is primitives: the velocity v = m/rho and the ideal-gas pressure pr = (Gamma-1)(E - |m.v|/2).
func primitivesGo(rho, mx, my, mz, en, v0, v1, v2, pr []float64, one, gm1, half float64) {
	n := len(rho)
	mx, my, mz, en, v0, v1, v2, pr = mx[:n], my[:n], mz[:n], en[:n], v0[:n], v1[:n], v2[:n], pr[:n]
	for i := 0; i < n; i++ {
		e0 := one / rho[i]
		e1 := mx[i] * e0
		e2 := my[i] * e0
		e3 := mz[i] * e0
		e4 := gm1 * (en[i] - (half * (((mx[i] * e1) + (my[i] * e2)) + (mz[i] * e3))))
		v0[i] = e1
		v1[i] = e2
		v2[i] = e3
		pr[i] = e4
	}
}

// energyFluxGo is energyFlux: the energy flux f_d = v_d (E + p).
func energyFluxGo(en, pr, v0, v1, v2, f0, f1, f2 []float64) {
	n := len(en)
	pr, v0, v1, v2, f0, f1, f2 = pr[:n], v0[:n], v1[:n], v2[:n], f0[:n], f1[:n], f2[:n]
	for i := 0; i < n; i++ {
		e0 := en[i] + pr[i]
		e1 := v0[i] * e0
		e2 := v1[i] * e0
		e3 := v2[i] * e0
		f0[i] = e1
		f1[i] = e2
		f2[i] = e3
	}
}

// momentumFluxXGo is momentumFluxX: the flux f_d = u v_d (+ p for d = 0) of momentum component u.
func momentumFluxXGo(u, v0, v1, v2, pr, f0, f1, f2 []float64) {
	n := len(u)
	v0, v1, v2, pr, f0, f1, f2 = v0[:n], v1[:n], v2[:n], pr[:n], f0[:n], f1[:n], f2[:n]
	for i := 0; i < n; i++ {
		e0 := (u[i] * v0[i]) + pr[i]
		e1 := u[i] * v1[i]
		e2 := u[i] * v2[i]
		f0[i] = e0
		f1[i] = e1
		f2[i] = e2
	}
}

// momentumFluxYGo is momentumFluxY: the flux f_d = u v_d (+ p for d = 1) of momentum component u.
func momentumFluxYGo(u, v0, v1, v2, pr, f0, f1, f2 []float64) {
	n := len(u)
	v0, v1, v2, pr, f0, f1, f2 = v0[:n], v1[:n], v2[:n], pr[:n], f0[:n], f1[:n], f2[:n]
	for i := 0; i < n; i++ {
		e0 := u[i] * v0[i]
		e1 := (u[i] * v1[i]) + pr[i]
		e2 := u[i] * v2[i]
		f0[i] = e0
		f1[i] = e1
		f2[i] = e2
	}
}

// momentumFluxZGo is momentumFluxZ: the flux f_d = u v_d (+ p for d = 2) of momentum component u.
func momentumFluxZGo(u, v0, v1, v2, pr, f0, f1, f2 []float64) {
	n := len(u)
	v0, v1, v2, pr, f0, f1, f2 = v0[:n], v1[:n], v2[:n], pr[:n], f0[:n], f1[:n], f2[:n]
	for i := 0; i < n; i++ {
		e0 := u[i] * v0[i]
		e1 := u[i] * v1[i]
		e2 := (u[i] * v2[i]) + pr[i]
		f0[i] = e0
		f1[i] = e1
		f2[i] = e2
	}
}

// divergenceGo is divergence: r = -(rx g0 + rx g1 + rx g2), summed from +0.
func divergenceGo(g0, g1, g2, r []float64, rx float64) {
	n := len(g0)
	g1, g2, r = g1[:n], g2[:n], r[:n]
	for i := 0; i < n; i++ {
		e0 := -(((0 + (rx * g0[i])) + (rx * g1[i])) + (rx * g2[i]))
		r[i] = e0
	}
}

// rkStage1Go is rkStage1: u1 = U + dt r.
func rkStage1Go(u, r, u1 []float64, dt float64) {
	n := len(u)
	r, u1 = r[:n], u1[:n]
	for i := 0; i < n; i++ {
		e0 := u[i] + (dt * r[i])
		u1[i] = e0
	}
}

// rkStage2Go is rkStage2: u1 = 3/4 U + 1/4 (u1 + dt r), in place.
func rkStage2Go(u, r, u1 []float64, dt, c34, c14 float64) {
	n := len(u)
	r, u1 = r[:n], u1[:n]
	for i := 0; i < n; i++ {
		e0 := (c34 * u[i]) + (c14 * (u1[i] + (dt * r[i])))
		u1[i] = e0
	}
}

// rkStage3Go is rkStage3: U = U/3 + 2/3 (u1 + dt r), in place.
func rkStage3Go(u, r, u1 []float64, dt, three, twoThirds float64) {
	n := len(u)
	r, u1 = r[:n], u1[:n]
	for i := 0; i < n; i++ {
		e0 := (u[i] / three) + (twoThirds * (u1[i] + (dt * r[i])))
		u[i] = e0
	}
}

// liftPairGo is liftPair: w = scale (sign (fc - (fc+fo)/2) - lam (uc - (uc+uo)/2)) for a face paired on the rank.
func liftPairGo(fc, uc, fo, uo, w []float64, scale, sign, lam, half float64) {
	n := len(fc)
	uc, fo, uo, w = uc[:n], fo[:n], uo[:n], w[:n]
	for i := 0; i < n; i++ {
		e0 := scale * ((sign * (fc[i] - (half * (fc[i] + fo[i])))) - (lam * (uc[i] - (half * (uc[i] + uo[i])))))
		w[i] = e0
	}
}

// liftBoundaryGo is liftBoundary: w = scale (sign (fc - fsum/2) - lam (uc - usum/2)) for a rank-boundary face.
func liftBoundaryGo(fc, uc, fsum, usum, w []float64, scale, sign, lam, half float64) {
	n := len(fc)
	uc, fsum, usum, w = uc[:n], fsum[:n], usum[:n], w[:n]
	for i := 0; i < n; i++ {
		e0 := scale * ((sign * (fc[i] - (half * fsum[i]))) - (lam * (uc[i] - (half * usum[i]))))
		w[i] = e0
	}
}

// surfaceFluxXGo is surfaceFluxX: the Euler flux along direction 0 of the conserved state (rho, m, E), all five fields.
func surfaceFluxXGo(rho, mx, my, mz, en, f0, f1, f2, f3, f4 []float64, one, gm1, half float64) {
	n := len(rho)
	mx, my, mz, en, f0, f1, f2, f3, f4 = mx[:n], my[:n], mz[:n], en[:n], f0[:n], f1[:n], f2[:n], f3[:n], f4[:n]
	for i := 0; i < n; i++ {
		e0 := mx[i]
		e1 := e0 * (one / rho[i])
		e2 := gm1 * (en[i] - ((half * (((e0 * e0) + (my[i] * my[i])) + (mz[i] * mz[i]))) / rho[i]))
		e3 := (e0 * e1) + e2
		e4 := my[i] * e1
		e5 := mz[i] * e1
		e6 := e1 * (en[i] + e2)
		f0[i] = e0
		f1[i] = e3
		f2[i] = e4
		f3[i] = e5
		f4[i] = e6
	}
}

// surfaceFluxYGo is surfaceFluxY: the Euler flux along direction 1 of the conserved state (rho, m, E), all five fields.
func surfaceFluxYGo(rho, mx, my, mz, en, f0, f1, f2, f3, f4 []float64, one, gm1, half float64) {
	n := len(rho)
	mx, my, mz, en, f0, f1, f2, f3, f4 = mx[:n], my[:n], mz[:n], en[:n], f0[:n], f1[:n], f2[:n], f3[:n], f4[:n]
	for i := 0; i < n; i++ {
		e0 := my[i]
		e1 := e0 * (one / rho[i])
		e2 := mx[i] * e1
		e3 := gm1 * (en[i] - ((half * (((mx[i] * mx[i]) + (e0 * e0)) + (mz[i] * mz[i]))) / rho[i]))
		e4 := (e0 * e1) + e3
		e5 := mz[i] * e1
		e6 := e1 * (en[i] + e3)
		f0[i] = e0
		f1[i] = e2
		f2[i] = e4
		f3[i] = e5
		f4[i] = e6
	}
}

// surfaceFluxZGo is surfaceFluxZ: the Euler flux along direction 2 of the conserved state (rho, m, E), all five fields.
func surfaceFluxZGo(rho, mx, my, mz, en, f0, f1, f2, f3, f4 []float64, one, gm1, half float64) {
	n := len(rho)
	mx, my, mz, en, f0, f1, f2, f3, f4 = mx[:n], my[:n], mz[:n], en[:n], f0[:n], f1[:n], f2[:n], f3[:n], f4[:n]
	for i := 0; i < n; i++ {
		e0 := mz[i]
		e1 := e0 * (one / rho[i])
		e2 := mx[i] * e1
		e3 := my[i] * e1
		e4 := gm1 * (en[i] - ((half * (((mx[i] * mx[i]) + (my[i] * my[i])) + (e0 * e0))) / rho[i]))
		e5 := (e0 * e1) + e4
		e6 := e1 * (en[i] + e4)
		f0[i] = e0
		f1[i] = e2
		f2[i] = e3
		f3[i] = e5
		f4[i] = e6
	}
}

// temperatureGo is temperature: the temperature T = p/rho (gas constant 1).
func temperatureGo(pr, rho, t []float64) {
	n := len(pr)
	rho, t = rho[:n], t[:n]
	for i := 0; i < n; i++ {
		e0 := pr[i] / rho[i]
		t[i] = e0
	}
}

// scaleByGo is scaleBy: x = x c, in place.
func scaleByGo(x []float64, c float64) {
	n := len(x)
	for i := 0; i < n; i++ {
		e0 := x[i] * c
		x[i] = e0
	}
}

// stressGo is stress: the Newtonian stress mu (g_id + g_di) - (2/3) mu div(v) delta_id over the velocity gradient g_id = dv_i/dx_d, in place.
func stressGo(g00, g01, g02, g10, g11, g12, g20, g21, g22 []float64, mu, c23mu float64) {
	n := len(g00)
	g01, g02, g10, g11, g12, g20, g21, g22 = g01[:n], g02[:n], g10[:n], g11[:n], g12[:n], g20[:n], g21[:n], g22[:n]
	for i := 0; i < n; i++ {
		e0 := c23mu * ((g00[i] + g11[i]) + g22[i])
		e1 := (mu * (g00[i] + g00[i])) - e0
		e2 := mu * (g01[i] + g10[i])
		e3 := mu * (g02[i] + g20[i])
		e4 := (mu * (g11[i] + g11[i])) - e0
		e5 := mu * (g12[i] + g21[i])
		e6 := (mu * (g22[i] + g22[i])) - e0
		g00[i] = e1
		g01[i] = e2
		g10[i] = e2
		g02[i] = e3
		g20[i] = e3
		g11[i] = e4
		g12[i] = e5
		g21[i] = e5
		g22[i] = e6
	}
}

// subtractFluxGo is subtractFlux: f = f - tau, in place.
func subtractFluxGo(f, tau []float64) {
	n := len(f)
	tau = tau[:n]
	for i := 0; i < n; i++ {
		e0 := f[i] - tau[i]
		f[i] = e0
	}
}

// subtractEnergyFluxGo is subtractEnergyFlux: f = f - (v.t + q), the stress's work summed from +0, in place.
func subtractEnergyFluxGo(f, v0, v1, v2, t0, t1, t2, q []float64) {
	n := len(f)
	v0, v1, v2, t0, t1, t2, q = v0[:n], v1[:n], v2[:n], t0[:n], t1[:n], t2[:n], q[:n]
	for i := 0; i < n; i++ {
		e0 := f[i] - ((((0 + (v0[i] * t0[i])) + (v1[i] * t1[i])) + (v2[i] * t2[i])) + q[i])
		f[i] = e0
	}
}
