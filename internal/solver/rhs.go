package solver

import (
	"time"

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

// wallCorrection fills out[c] with (f - f*).n for every conserved field
// at the slip-wall face point idx: the ghost state mirrors the interior
// trace with the normal momentum negated, so with the Lax-Friedrichs flux
// (f - f*).n = sign*(F_in - F_ghost)/2 - lambda*(u_in - u_ghost)/2.
// Mass and energy fluxes cancel exactly (the box is sealed); normal
// momentum feels the wall's pressure reaction.
func (s *Solver) wallCorrection(d int, sign float64, idx int, lam float64, out *[NumFields]float64) {
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
	for c := range out {
		out[c] = sign*(fin[c]-fg[c])/2 - lam*(us[c]-ug[c])/2
	}
}

// computeRHS evaluates the semi-discrete DG right-hand side of the
// conservation law for the state in, leaving it in s.rhs, and runs the
// Runge-Kutta stage update s.post names over it. One call is one pass
// through every kernel of the paper's Figure 4 profile; with Mu > 0 the
// viscous (compressible Navier-Stokes) flux path adds the gradient
// kernels of the parent code. The overlap path (computeRHSOverlap) runs
// the same helpers over interior/boundary element runs instead of one
// full run; every kernel is element-local, so both orders are
// bit-identical.
func (s *Solver) computeRHS(in *[NumFields][]float64) {
	viscous := s.Cfg.Mu > 0
	all := [][2]int{{0, s.Local.Nel}} // one run: the split path's helpers and pool partitions

	s.chargeAhead()
	nf := s.faceRuns(in, all, !viscous)
	s.volumeRuns(in, all, viscous)
	s.charge(s.sched.surface, nf) // where the surface-flux sweep stood

	// --- gs_op: nearest-neighbor exchange of the rank-boundary state and
	// flux traces, in place. Afterwards each rank-boundary face point of
	// faceU/faceF holds the in+out sum (its own trace is in ownU/ownF);
	// every other point still holds its own trace.
	reg := s.Rec.Region("gs_op", obs.CatGS)
	s.saveOwn(&s.ownU, &s.faceU)
	s.saveOwn(&s.ownF, &s.faceF)
	if s.Cfg.PackedExchange {
		// gs_op_fields: one packed message per neighbor per exchange.
		s.gsh.OpFields(s.faceU[:], comm.OpSum, s.gsh.Method())
		s.gsh.OpFields(s.faceF[:], comm.OpSum, s.gsh.Method())
	} else {
		for c := 0; c < NumFields; c++ {
			s.gsh.Op(s.faceU[c], comm.OpSum)
			s.gsh.Op(s.faceF[c], comm.OpSum)
		}
	}
	reg.End()

	s.postExchange()
}

// saveOwn copies the own traces of the rank-boundary faces out of face
// into own (face k at k*N^2), before the exchange sums over them.
func (s *Solver) saveOwn(own, face *[NumFields][]float64) {
	n2 := s.Cfg.N * s.Cfg.N
	for c := range face {
		for k, slot := range s.remote {
			copy(own[c][k*n2:(k+1)*n2], face[c][int(slot)*n2:])
		}
	}
}

// faceJob is the run faceElems is working through (kept in the Solver,
// like volJob, so a run dispatches to the pool without allocating).
type faceJob struct {
	in   *[NumFields][]float64
	elo  int
	flux bool
}

// faceRuns is full2face_cmt over the given element runs — gather the
// surface traces of the state into s.faceU — and, with flux set, the
// inviscid surface compute_flux in the same pass: the normal Euler flux
// at each face point into s.faceF, evaluated from the element's traces
// while they are in cache (the viscous path extracts it from the volume
// flux in volumeRuns instead). It bills full2face_cmt and returns how
// many elements it covered, for the caller to bill the surface flux (an
// inviscid schedule's) where that sweep stood.
func (s *Solver) faceRuns(in *[NumFields][]float64, runs [][2]int, flux bool) int {
	s.face.in, s.face.flux = in, flux
	nelr := 0
	start := time.Now()
	for _, run := range runs {
		s.face.elo = run[0]
		s.pool.ForSlots(run[1]-run[0], s.faceBody)
		nelr += run[1] - run[0]
	}
	s.timePass(start)
	s.charge(s.sched.face, nelr)
	return nelr
}

// faceElems runs the surface pass over elements [lo, hi) of the current
// run on pool slot slot.
func (s *Solver) faceElems(slot, lo, hi int) {
	job := &s.face
	n := s.Cfg.N
	n2, n3 := n*n, n*n*n
	fpe := sem.NFaces * n2
	sl := &s.volSlots[slot]
	sl.t0, sl.last = time.Now(), 0
	for e := job.elo + lo; e < job.elo+hi; e++ {
		for c := 0; c < NumFields; c++ {
			sem.Full2Face(n, job.in[c][e*n3:(e+1)*n3], 1, s.faceU[c][e*fpe:(e+1)*fpe])
		}
		sl.lap(faceExt)
		if job.flux {
			for f := 0; f < sem.NFaces; f++ {
				// The normal Euler flux of eulerFlux, on whole face slabs.
				d := sem.FaceDir(f)
				base := e*fpe + f*n2
				rho, en := s.faceU[IRho][base:base+n2], s.faceU[IEnergy][base:base+n2]
				mx, my, mz := s.faceU[IMomX][base:base+n2], s.faceU[IMomY][base:base+n2], s.faceU[IMomZ][base:base+n2]
				mn := s.faceU[IMomX+d][base : base+n2]
				f0, f4 := s.faceF[IRho][base:base+n2], s.faceF[IEnergy][base:base+n2]
				f1, f2, f3 := s.faceF[IMomX][base:base+n2], s.faceF[IMomY][base:base+n2], s.faceF[IMomZ][base:base+n2]
				fn := s.faceF[IMomX+d][base : base+n2]
				for q := range rho {
					r, x, y, z := rho[q], mx[q], my[q], mz[q]
					vn := mn[q] * (1 / r)
					p := (Gamma - 1) * (en[q] - 0.5*(x*x+y*y+z*z)/r)
					f0[q] = mn[q]
					f1[q], f2[q], f3[q] = x*vn, y*vn, z*vn
					fn[q] += p
					f4[q] = vn * (en[q] + p)
				}
			}
			sl.lap(faceFlux)
		}
		sl.t0 = time.Time{}
	}
}

// volSlot is one pool slot's private state in the element pipelines.
type volSlot struct {
	buf  []float64                // the running pass's scratch (sized in New)
	secs [numStages]time.Duration // its stopwatch's totals for the pass in progress
	t0   time.Time                // set while the stopwatch runs: on the first element of the slot's share of a pass
	last time.Duration            // the stopwatch's last lap
	_    [64]byte                 // keeps neighbouring slots' laps off one cache line
}

// lap books the wall since the previous lap to stage while the slot's
// stopwatch runs (one element a pass: each is the same work).
func (sl *volSlot) lap(stage int) {
	if !sl.t0.IsZero() {
		now := time.Since(sl.t0)
		sl.secs[stage] += now - sl.last
		sl.last = now
	}
}

// volJob is the run volumeElems is working through. It lives in the
// Solver (with the closure over it built once, in New) so that a run
// dispatches to the pool without allocating.
type volJob struct {
	in      *[NumFields][]float64
	kern    sem.ElemDeriv
	elo     int
	viscous bool
}

// volumeRuns is the derivative kernel (ax_) phase — the dominant cost —
// over the given element runs, one element at a time: the element's
// velocity and pressure are formed in slot scratch, then for each field
// the three directional fluxes are evaluated into slot scratch, D is applied
// along r, s and t while they are in cache, and the divergence, scaled by
// the constant metric and negated, goes straight into s.rhs. In the
// viscous path the flux carries the viscous terms and its face traces
// are extracted here too (both sides then average them via gs, a
// BR1-style viscous interface flux). Per point this is the arithmetic of
// a sweep-per-(field, direction) formulation in the same order, so the
// state is bit-identical to one; each run is billed as those sweeps.
func (s *Solver) volumeRuns(in *[NumFields][]float64, runs [][2]int, viscous bool) {
	s.vol.in, s.vol.viscous = in, viscous
	s.vol.kern = sem.NewElemDeriv(s.Cfg.Variant, s.Ref)
	for _, run := range runs {
		s.vol.elo = run[0]
		start := time.Now()
		s.pool.ForSlots(run[1]-run[0], s.volBody)
		s.timePass(start)
		s.charge(s.sched.volume, run[1]-run[0])
	}
}

// volumeElems runs the volume pipeline over elements [lo, hi) of the
// current run on pool slot slot.
func (s *Solver) volumeElems(slot, lo, hi int) {
	job, sl := &s.vol, &s.volSlots[slot]
	in := job.in
	n := s.Cfg.N
	n3 := n * n * n
	fpe := sem.NFaces * n * n
	rx := s.rx
	// Scratch: the three flux components, then their derivatives, the
	// velocity and the pressure. (Sliced to a length the compiler can see
	// is n3, which keeps bounds checks out of the pointwise loops.)
	f0, f1, f2 := sl.buf[:n3], sl.buf[n3:][:n3], sl.buf[2*n3:][:n3]
	g0, g1, g2 := sl.buf[3*n3:][:n3], sl.buf[4*n3:][:n3], sl.buf[5*n3:][:n3]
	v0, v1, v2, pr := sl.buf[6*n3:][:n3], sl.buf[7*n3:][:n3], sl.buf[8*n3:][:n3], sl.buf[9*n3:][:n3]
	f, g, vel := [3][]float64{f0, f1, f2}, [3][]float64{g0, g1, g2}, [3][]float64{v0, v1, v2}
	vis := sl.buf[10*n3:] // viscous: elemGradients' scratch
	sl.t0, sl.last = time.Now(), 0
	for e := job.elo + lo; e < job.elo+hi; e++ {
		base := e * n3
		rho, en := in[IRho][base:][:n3], in[IEnergy][base:][:n3]
		mx, my, mz := in[IMomX][base:][:n3], in[IMomY][base:][:n3], in[IMomZ][base:][:n3]
		for i := 0; i < n3; i++ {
			inv := 1 / rho[i]
			v0[i] = mx[i] * inv
			v1[i] = my[i] * inv
			v2[i] = mz[i] * inv
			pr[i] = (Gamma - 1) * (en[i] - 0.5*(mx[i]*v0[i]+my[i]*v1[i]+mz[i]*v2[i]))
		}
		sl.lap(volPrim)
		if job.viscous {
			s.elemGradients(vis, &job.kern, rho, vel, pr, sl)
		}
		for c := 0; c < NumFields; c++ {
			src := f // what the derivative kernels read
			switch {
			case c == IRho:
				// The mass flux is the momentum: differentiate it in place.
				for d := 0; d < 3; d++ {
					src[d] = in[IMomX+d][base : base+n3]
				}
			case c == IEnergy:
				for i := 0; i < n3; i++ {
					h := en[i] + pr[i]
					f0[i], f1[i], f2[i] = v0[i]*h, v1[i]*h, v2[i]*h
				}
			default:
				uc := in[c][base : base+n3]
				for i := 0; i < n3; i++ {
					u := uc[i]
					f0[i], f1[i], f2[i] = u*v0[i], u*v1[i], u*v2[i]
				}
				fn := f[c-IMomX][:n3] // the normal component carries the pressure
				for i := 0; i < n3; i++ {
					fn[i] += pr[i]
				}
			}
			if job.viscous && c != IRho { // no viscous mass flux
				for d := 0; d < 3; d++ {
					s.subViscousFlux(c, d, vel, vis, f[d])
				}
			}
			sl.lap(volFlux)
			if job.viscous {
				faces := s.faceF[c][e*fpe : (e+1)*fpe]
				for d := 0; d < 3; d++ {
					sem.Full2FaceDir(n, src[d], 1, faces, d)
				}
				sl.lap(volFace)
			}
			for d := 0; d < 3; d++ {
				job.kern.Apply(sem.Direction(d), src[d], g[d])
				sl.lap(volR + d)
			}
			rc := s.rhs[c][base : base+n3]
			for i := 0; i < n3; i++ {
				rc[i] = -(((0 + rx*g0[i]) + rx*g1[i]) + rx*g2[i])
			}
			sl.lap(volRest)
		}
		sl.t0 = time.Time{}
	}
}

// postJob is the Runge-Kutta stage postElems finishes: 1 and 2 write
// u1, 3 writes U and filters it.
type postJob struct {
	stage int
	dt    float64
}

// postExchange is everything after the face exchange, in one pass over
// the elements: numerical flux + lift, source terms, dealiasing, the
// stage update and, after the last stage, the spectral filter. It is
// identical in the blocking and overlap paths (both run it over all
// elements once the exchanged traces are complete), bills the sweeps it
// replaces in their order and settles the right-hand side's calls.
func (s *Solver) postExchange() {
	nel := s.Local.Nel
	start := time.Now()
	s.pool.ForSlots(nel, s.postBody)
	s.timePass(start)
	s.charge(s.sched.lift, nel)
	if s.Source[0] != nil {
		s.charge(s.sched.source, nel)
	}
	if s.Cfg.Dealias {
		s.charge(s.sched.dealias, nel)
	}
	switch s.post.stage {
	case 1, 2:
		s.charge(s.sched.earlyUpdate, nel)
	case 3:
		s.charge(s.sched.update, nel)
		if s.filterMat != nil {
			s.charge(s.sched.filter, nel)
		}
	}
	s.settle()
}

// postElems runs the post-exchange pass over elements [lo, hi) on pool
// slot slot. Per point every step is the whole-rank sweep's, in the
// sweeps' order, so the state is bit-identical to theirs; the update
// reads u1 at a point before it writes it there, so stage 2 updates u1
// in place.
func (s *Solver) postElems(slot, lo, hi int) {
	job, sl := &s.post, &s.volSlots[slot]
	n := s.Cfg.N
	n3 := n * n * n
	dt := job.dt
	var w [NumFields][]float64 // the lift's scratch: one face of corrections per field
	for c := range w {
		w[c] = sl.buf[c*n*n:][:n*n]
	}
	sl.t0, sl.last = time.Now(), 0
	for e := lo; e < hi; e++ {
		base := e * n3
		s.liftElem(e, &w)
		sl.lap(postLift)
		// Source terms: the conservation law's R (multiphase coupling).
		// Zero — i.e. absent — in the paper's current CMT-bone; populated
		// by couplers such as the particle cloud.
		if s.Source[0] != nil {
			for c := 0; c < NumFields; c++ {
				src, rc := s.Source[c][base:][:n3], s.rhs[c][base:][:n3]
				for i := range rc {
					rc[i] += src[i]
				}
			}
			sl.lap(postSource)
		}
		// Dealiasing: each field to the fine mesh and back (cost path of
		// the dealiased flux evaluation).
		if s.Cfg.Dealias {
			uf := sl.buf[:s.Ref.NF*s.Ref.NF*s.Ref.NF]
			scr := sl.buf[len(uf):]
			for c := 0; c < NumFields; c++ {
				s.Ref.DealiasRoundTrip(s.rhs[c][base:][:n3], 1, uf, scr)
			}
			sl.lap(postDeal)
		}
		for c := 0; c < NumFields; c++ {
			uc, rc, u1 := s.U[c][base:][:n3], s.rhs[c][base:][:n3], s.u1[c][base:][:n3]
			switch job.stage {
			case 1: // u1 = U + dt RHS(U)
				for i := range u1 {
					u1[i] = uc[i] + dt*rc[i]
				}
			case 2: // u1 = 3/4 U + 1/4 (u1 + dt RHS(u1))
				for i := range u1 {
					u1[i] = 0.75*uc[i] + 0.25*(u1[i]+dt*rc[i])
				}
			case 3: // U = 1/3 U + 2/3 (u1 + dt RHS(u1))
				for i := range uc {
					uc[i] = uc[i]/3 + 2.0/3.0*(u1[i]+dt*rc[i])
				}
			}
		}
		sl.lap(postUpdate)
		// Spectral filter (shock-capturing proxy): attenuate the highest
		// Legendre modes of every conserved field.
		if job.stage == 3 && s.filterMat != nil {
			for c := 0; c < NumFields; c++ {
				sem.FilterElements(s.filterMat, n, s.U[c][base:][:n3], 1, s.Cfg.FilterStrength, sl.buf)
			}
			sl.lap(postFilter)
		}
		sl.t0 = time.Time{}
	}
}

// liftElem is the numerical flux (Lax-Friedrichs) and lift of element e,
// one face at a time: the correction (f - f*).n at each face point,
// scaled by the diagonal lift factor, into w, then added into the volume
// residual of every field while the face's traces are in cache — faces
// in sem order, so each volume point sees the additions the five
// whole-rank Face2FullAdd sweeps made, in their order. A face paired on
// this rank forms the in+out sums from its partner's traces (IEEE
// addition commutes, so they are the gather-scatter's bits); a
// rank-boundary face reads the exchanged sums. Domain boundary faces see
// a mirror ghost state (slip wall) or no correction (freestream).
func (s *Solver) liftElem(e int, w *[NumFields][]float64) {
	n := s.Cfg.N
	n2, n3 := n*n, n*n*n
	lam := s.lambda
	wall := s.Cfg.BC == BCWall
	var corr [NumFields]float64
	for f := 0; f < sem.NFaces; f++ {
		d := sem.FaceDir(f)
		sign := float64(sem.FaceSign(f))
		scale := s.liftScale[d]
		base := (e*sem.NFaces + f) * n2
		switch l := s.link[e*sem.NFaces+f]; {
		case l >= 0:
			// (f - f*).n with the Lax-Friedrichs flux, written in terms of
			// the in+out sums.
			po := int(l) * n2
			for c := 0; c < NumFields; c++ {
				fc, uc := s.faceF[c][base:base+n2], s.faceU[c][base:base+n2]
				fo, uo := s.faceF[c][po:po+n2], s.faceU[c][po:po+n2]
				wc := w[c]
				for q := range wc {
					wc[q] = scale * (sign*(fc[q]-0.5*(fc[q]+fo[q])) - lam*(uc[q]-0.5*(uc[q]+uo[q])))
				}
			}
		case l != domainBoundary:
			own := int(^l) * n2
			for c := 0; c < NumFields; c++ {
				fc, uc := s.ownF[c][own:own+n2], s.ownU[c][own:own+n2]
				fsum, usum := s.faceF[c][base:base+n2], s.faceU[c][base:base+n2]
				wc := w[c]
				for q := range wc {
					wc[q] = scale * (sign*(fc[q]-0.5*fsum[q]) - lam*(uc[q]-0.5*usum[q]))
				}
			}
		case wall:
			for q := 0; q < n2; q++ {
				s.wallCorrection(d, sign, base+q, lam, &corr)
				for c := range corr {
					w[c][q] = scale * corr[c]
				}
			}
		default:
			// Freestream: a zero correction, still added — x + 0 is x for
			// every x but -0.
			for c := range w {
				clear(w[c])
			}
		}
		for c := 0; c < NumFields; c++ {
			sem.AddFace(n, f, w[c], s.rhs[c][e*n3:(e+1)*n3])
		}
	}
}
