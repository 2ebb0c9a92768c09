package solver

import (
	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/sem"
)

// eulerFlux fills out[c] with the flux of conserved variable c along
// direction d, given the conserved state u and precomputed velocity and
// pressure. All quantities are at one point.
func eulerFlux(d int, u *[NumFields]float64, vel *[3]float64, p float64, out *[NumFields]float64) {
	vn := vel[d]
	out[IRho] = u[IMomX+d]
	out[IMomX] = u[IMomX] * vn
	out[IMomY] = u[IMomY] * vn
	out[IMomZ] = u[IMomZ] * vn
	out[IMomX+d] += p
	out[IEnergy] = vn * (u[IEnergy] + p)
}

// pressure returns the ideal-gas pressure of a conserved state.
func pressure(u *[NumFields]float64) float64 {
	ke := 0.5 * (u[IMomX]*u[IMomX] + u[IMomY]*u[IMomY] + u[IMomZ]*u[IMomZ]) / u[IRho]
	return (Gamma - 1) * (u[IEnergy] - ke)
}

// wallCorrection returns (f - f*).n for conserved field c at a slip-wall
// face point: the ghost state mirrors the interior trace with the normal
// momentum negated, so with the Lax-Friedrichs flux
// (f - f*).n = sign*(F_in - F_ghost)/2 - lambda*(u_in - u_ghost)/2.
// Mass and energy fluxes cancel exactly (the box is sealed); normal
// momentum feels the wall's pressure reaction.
func (s *Solver) wallCorrection(c, d int, sign float64, idx int, lam float64) float64 {
	var us, ug, fin, fg [NumFields]float64
	for cc := 0; cc < NumFields; cc++ {
		us[cc] = s.faceU[cc][idx]
	}
	ug = us
	ug[IMomX+d] = -us[IMomX+d]
	inv := 1 / us[IRho]
	vel := [3]float64{us[IMomX] * inv, us[IMomY] * inv, us[IMomZ] * inv}
	p := pressure(&us)
	eulerFlux(d, &us, &vel, p, &fin)
	velG := vel
	velG[d] = -vel[d]
	eulerFlux(d, &ug, &velG, p, &fg)
	return sign*(fin[c]-fg[c])/2 - lam*(us[c]-ug[c])/2
}

// allRun returns the whole local element set as a single run — the
// blocking path's "runs" parameter, so it executes the same helpers (and
// the same pool partitions) as the interior/boundary split path does.
func (s *Solver) allRun() [][2]int {
	if s.Local.Nel == 0 {
		return nil
	}
	return [][2]int{{0, s.Local.Nel}}
}

// computeRHS evaluates the semi-discrete DG right-hand side of the
// conservation law for the state in, leaving it in s.rhs. One call is one
// pass through every kernel of the paper's Figure 4 profile; with Mu > 0
// the viscous (compressible Navier-Stokes) flux path adds the gradient
// sweeps of the parent code. The overlap path (computeRHSOverlap) runs
// the same helpers over interior/boundary element runs instead of one
// full run; every kernel is element-local, so both orders are
// bit-identical.
func (s *Solver) computeRHS(in *[NumFields][]float64) {
	viscous := s.Cfg.Mu > 0
	all := s.allRun()

	s.rhsPrimitive(in)
	if viscous {
		s.computeGradients(in)
	}
	s.faceExtractRuns(in, all)
	s.volumeRuns(in, all, viscous)
	if !viscous {
		s.surfaceFluxRuns(all)
	}

	// --- gs_op: nearest-neighbor exchange of state and flux traces.
	// After the exchange each shared face point holds in+out sums;
	// unshared (true boundary) points are untouched.
	stop := s.span("gs_op", obs.CatGS)
	for c := 0; c < NumFields; c++ {
		copy(s.exU[c], s.faceU[c])
		copy(s.exF[c], s.faceF[c])
	}
	if s.Cfg.PackedExchange {
		// gs_op_fields: one packed message per neighbor per exchange.
		s.gsh.OpFields(s.exU[:], comm.OpSum, s.gsh.Method())
		s.gsh.OpFields(s.exF[:], comm.OpSum, s.gsh.Method())
	} else {
		for c := 0; c < NumFields; c++ {
			s.gsh.Op(s.exU[c], comm.OpSum)
			s.gsh.Op(s.exF[c], comm.OpSum)
		}
	}
	stop()

	s.rhsTail()
}

// rhsPrimitive is the compute_primitive pass: velocity and pressure once
// per point, shared by all 15 (field, direction) flux evaluations.
func (s *Solver) rhsPrimitive(in *[NumFields][]float64) {
	vol := len(s.prP)
	stop := s.span("compute_primitive", obs.CatKernel)
	rho, mx, my, mz, en := in[IRho], in[IMomX], in[IMomY], in[IMomZ], in[IEnergy]
	vx, vy, vz, pr := s.velP[0], s.velP[1], s.velP[2], s.prP
	s.pool.For(vol, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			inv := 1 / rho[i]
			vx[i] = mx[i] * inv
			vy[i] = my[i] * inv
			vz[i] = mz[i] * inv
			pr[i] = (Gamma - 1) * (en[i] - 0.5*(mx[i]*vx[i]+my[i]*vy[i]+mz[i]*vz[i]))
		}
	})
	s.chargeCompute(sem.OpCount{Mul: int64(vol) * 8, Add: int64(vol) * 3,
		Load: int64(vol) * NumFields, Store: int64(vol) * 4}, pointwiseTraits)
	stop()
}

// faceExtractRuns is full2face_cmt over the given element runs: gather
// the surface traces of the state into s.faceU.
func (s *Solver) faceExtractRuns(in *[NumFields][]float64, runs [][2]int) {
	if len(runs) == 0 {
		return
	}
	n := s.Cfg.N
	n3 := n * n * n
	fpe := sem.NFaces * n * n
	stop := s.span("full2face_cmt", obs.CatKernel)
	var moveOps sem.OpCount
	for _, run := range runs {
		elo, ehi := run[0], run[1]
		for c := 0; c < NumFields; c++ {
			moveOps = moveOps.Plus(sem.Full2FacePool(s.pool, n,
				in[c][elo*n3:ehi*n3], ehi-elo, s.faceU[c][elo*fpe:ehi*fpe]))
		}
	}
	s.chargeCompute(moveOps, pointwiseTraits)
	stop()
}

// volumeRuns is the derivative kernel (ax_) phase — the dominant cost —
// over the given element runs. For each field and direction: pointwise
// flux, then the tensor-product derivative, accumulated with the constant
// metric into the divergence and negated into s.rhs. In the viscous path
// the face traces of the total flux are extracted here too (both sides
// then average them via gs, a BR1-style viscous interface flux).
func (s *Solver) volumeRuns(in *[NumFields][]float64, runs [][2]int, viscous bool) {
	n := s.Cfg.N
	n3 := n * n * n
	fpe := sem.NFaces * n * n
	pr, en := s.prP, in[IEnergy]
	for _, run := range runs {
		elo, ehi := run[0], run[1]
		nelr := ehi - elo
		off := elo * n3
		volr := nelr * n3
		for c := 0; c < NumFields; c++ {
			s.pool.For(volr, func(lo, hi int) {
				dv := s.div[off+lo : off+hi]
				for i := range dv {
					dv[i] = 0
				}
			})
			for d := 0; d < 3; d++ {
				stop := s.span("compute_flux", obs.CatKernel)
				vn := s.velP[d]
				switch {
				case c == IRho:
					copy(s.fx[off:off+volr], in[IMomX+d][off:off+volr])
				case c == IMomX+d:
					uc := in[c]
					s.pool.For(volr, func(lo, hi int) {
						for i := off + lo; i < off+hi; i++ {
							s.fx[i] = uc[i]*vn[i] + pr[i]
						}
					})
				case c == IEnergy:
					s.pool.For(volr, func(lo, hi int) {
						for i := off + lo; i < off+hi; i++ {
							s.fx[i] = vn[i] * (en[i] + pr[i])
						}
					})
				default:
					uc := in[c]
					s.pool.For(volr, func(lo, hi int) {
						for i := off + lo; i < off+hi; i++ {
							s.fx[i] = uc[i] * vn[i]
						}
					})
				}
				if viscous {
					s.addViscousFluxRange(c, d, off, volr)
				}
				s.chargeCompute(sem.OpCount{Mul: int64(volr), Add: int64(volr),
					Load: int64(volr) * 2, Store: int64(volr)}, pointwiseTraits)
				stop()

				if viscous {
					stop = s.span("full2face_cmt", obs.CatKernel)
					moveOps := sem.Full2FaceDirPool(s.pool, n, s.fx[off:off+volr], nelr,
						s.faceF[c][elo*fpe:ehi*fpe], d)
					s.chargeCompute(moveOps, pointwiseTraits)
					stop()
				}

				dir := sem.Direction(d)
				stop = s.span("ax_deriv_"+dir.String(), obs.CatKernel)
				ops := sem.DerivPool(s.pool, dir, s.Cfg.Variant, s.Ref,
					s.fx[off:off+volr], s.dwork[off:off+volr], nelr)
				s.chargeCompute(ops, s.derivTraits[d])
				stop()

				s.pool.For(volr, func(lo, hi int) {
					for i := off + lo; i < off+hi; i++ {
						s.div[i] += s.rx * s.dwork[i]
					}
				})
			}
			rc := s.rhs[c]
			s.pool.For(volr, func(lo, hi int) {
				for i := off + lo; i < off+hi; i++ {
					rc[i] = -s.div[i]
				}
			})
		}
		s.chargeCompute(sem.OpCount{Mul: int64(volr) * 3 * NumFields, Add: int64(volr) * 4 * NumFields,
			Load: int64(volr) * 2, Store: int64(volr)}, pointwiseTraits)
	}
}

// surfaceFluxRuns is the inviscid surface compute_flux over the given
// element runs: the normal flux at face points evaluated directly from
// the local trace (the viscous path extracts it from the volume flux in
// volumeRuns instead).
func (s *Solver) surfaceFluxRuns(runs [][2]int) {
	if len(runs) == 0 {
		return
	}
	n := s.Cfg.N
	n2 := n * n
	stop := s.span("compute_flux_surface", obs.CatKernel)
	faceLen := 0
	for _, run := range runs {
		rlo := run[0]
		s.pool.For(run[1]-run[0], func(elo, ehi int) {
			var us, fs [NumFields]float64
			var velPt [3]float64
			for e := rlo + elo; e < rlo+ehi; e++ {
				for f := 0; f < sem.NFaces; f++ {
					d := sem.FaceDir(f)
					base := e*sem.NFaces*n2 + f*n2
					for q := 0; q < n2; q++ {
						idx := base + q
						for c := 0; c < NumFields; c++ {
							us[c] = s.faceU[c][idx]
						}
						inv := 1 / us[IRho]
						velPt[0], velPt[1], velPt[2] = us[IMomX]*inv, us[IMomY]*inv, us[IMomZ]*inv
						p := pressure(&us)
						eulerFlux(d, &us, &velPt, p, &fs)
						for c := 0; c < NumFields; c++ {
							s.faceF[c][idx] = fs[c]
						}
					}
				}
			}
		})
		faceLen += (run[1] - run[0]) * sem.NFaces * n2
	}
	s.chargeCompute(sem.OpCount{Mul: int64(faceLen) * 6, Add: int64(faceLen) * 4,
		Load: int64(faceLen) * 2, Store: int64(faceLen)}, pointwiseTraits)
	stop()
}

// rhsTail is everything after the face exchange — numerical flux + lift,
// source terms, and dealiasing — identical in the blocking and overlap
// paths (both run it over all elements once the exchanged traces are
// complete).
func (s *Solver) rhsTail() {
	n := s.Cfg.N
	nel := s.Local.Nel
	n2 := n * n
	vol := nel * n * n * n
	faceLen := sem.FaceSliceLen(n, nel)

	// --- numerical flux (Lax-Friedrichs) and lift: the correction
	// (f - f*).n at each exchanged face point, scaled by the diagonal
	// lift factor, scatter-added into the volume residual. Boundary
	// face points (bmask == 0) either pass untouched (freestream) or
	// see a mirror ghost state (slip wall).
	stop := s.span("numerical_flux", obs.CatKernel)
	lam := s.lambda
	wall := s.Cfg.BC == BCWall
	for c := 0; c < NumFields; c++ {
		fc, uc := s.faceF[c], s.faceU[c]
		fsum, usum := s.exF[c], s.exU[c]
		dst := s.faceW
		s.pool.For(nel, func(elo, ehi int) {
			for e := elo; e < ehi; e++ {
				for f := 0; f < sem.NFaces; f++ {
					d := sem.FaceDir(f)
					sign := float64(sem.FaceSign(f))
					scale := s.liftScale[d]
					base := e*sem.NFaces*n2 + f*n2
					for q := 0; q < n2; q++ {
						idx := base + q
						if s.bmask[idx] == 0 {
							if wall {
								dst[idx] = scale * s.wallCorrection(c, d, sign, idx, lam)
							} else {
								dst[idx] = 0
							}
							continue
						}
						// (f - f*).n with the Lax-Friedrichs flux, written
						// in terms of the exchanged in+out sums.
						corr := sign*(fc[idx]-0.5*fsum[idx]) - lam*(uc[idx]-0.5*usum[idx])
						dst[idx] = scale * corr
					}
				}
			}
		})
		sem.Face2FullAddPool(s.pool, n, dst, nel, s.rhs[c])
	}
	s.chargeCompute(sem.OpCount{Mul: int64(faceLen) * NumFields * 4, Add: int64(faceLen) * NumFields * 4,
		Load: int64(faceLen) * NumFields * 4, Store: int64(faceLen) * NumFields}, pointwiseTraits)
	stop()

	// --- source terms: the conservation law's R (multiphase coupling).
	// Zero — i.e. absent — in the paper's current CMT-bone; populated by
	// couplers such as the particle cloud.
	if s.Source[0] != nil {
		stop = s.span("source_terms", obs.CatKernel)
		for c := 0; c < NumFields; c++ {
			src := s.Source[c]
			dst := s.rhs[c]
			s.pool.For(vol, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					dst[i] += src[i]
				}
			})
		}
		s.chargeCompute(sem.OpCount{Add: int64(vol) * NumFields,
			Load: 2 * int64(vol) * NumFields, Store: int64(vol) * NumFields}, pointwiseTraits)
		stop()
	}

	// --- dealiasing: map each field to the fine mesh and back (cost
	// path of the dealiased flux evaluation).
	if s.Cfg.Dealias {
		stop = s.span("dealias", obs.CatKernel)
		var ops sem.OpCount
		for c := 0; c < NumFields; c++ {
			ops = ops.Plus(s.Ref.DealiasRoundTripPool(s.pool, s.rhs[c], nel, s.deaBufs))
		}
		s.chargeCompute(ops, pointwiseTraits)
		stop()
	}
}
