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
	flux := s.faceRuns(in, all, !viscous)
	s.volumeRuns(in, all, viscous)
	s.chargeSurfaceFlux(flux)

	// --- gs_op: nearest-neighbor exchange of state and flux traces, out
	// of place. After the exchange each shared face point of exU/exF
	// holds the in+out sum; unshared (true boundary) points are not
	// written, and nothing reads them.
	reg := s.Rec.Region("gs_op", obs.CatGS)
	if s.Cfg.PackedExchange {
		// gs_op_fields: one packed message per neighbor per exchange.
		s.gsh.OpFieldsTo(s.exU[:], s.faceU[:], comm.OpSum, s.gsh.Method())
		s.gsh.OpFieldsTo(s.exF[:], s.faceF[:], comm.OpSum, s.gsh.Method())
	} else {
		for c := 0; c < NumFields; c++ {
			s.gsh.OpTo(s.exU[c], s.faceU[c], comm.OpSum)
			s.gsh.OpTo(s.exF[c], s.faceF[c], comm.OpSum)
		}
	}
	reg.End()

	s.rhsTail()
}

// rhsPrimitive is the compute_primitive pass: velocity and pressure once
// per point, shared by all 15 (field, direction) flux evaluations.
func (s *Solver) rhsPrimitive(in *[NumFields][]float64) {
	vol := len(s.prP)
	reg := s.Rec.Region("compute_primitive", obs.CatKernel)
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
	reg.End()
}

// faceJob is the run faceElems is working through (kept in the Solver,
// like volJob, so a run dispatches to the pool without allocating).
type faceJob struct {
	in   *[NumFields][]float64
	elo  int
	flux bool
}

// fluxBill is what a faceRuns pass owes for the surface flux it
// evaluated: the wall interval it took and the face points it covered
// (zero when it evaluated none).
type fluxBill struct {
	start  time.Time
	wall   time.Duration
	points int
}

// faceRuns is full2face_cmt over the given element runs — gather the
// surface traces of the state into s.faceU — and, with flux set, the
// inviscid surface compute_flux in the same pass: the normal Euler flux
// at each face point into s.faceF, evaluated from the element's traces
// while they are in cache (the viscous path extracts it from the volume
// flux in volumeRuns instead). It bills and reports full2face_cmt as the
// whole-rank sweep it replaces, and returns the flux's bill for the
// caller to settle (chargeSurfaceFlux) where that sweep stood.
func (s *Solver) faceRuns(in *[NumFields][]float64, runs [][2]int, flux bool) fluxBill {
	if len(runs) == 0 {
		return fluxBill{}
	}
	n := s.Cfg.N
	for i := range s.volSlots {
		s.volSlots[i].face = [2]time.Duration{}
	}
	s.face.in, s.face.flux = in, flux
	nelr := 0
	start := time.Now()
	for _, run := range runs {
		s.face.elo = run[0]
		s.pool.ForSlots(run[1]-run[0], s.faceBody)
		nelr += run[1] - run[0]
	}
	wall := time.Since(start)
	// The pass's wall time, split as the slots' stopwatches saw it.
	var ext, flx time.Duration
	for i := range s.volSlots {
		ext += s.volSlots[i].face[0]
		flx += s.volSlots[i].face[1]
	}
	extWall := wall
	if flx > 0 {
		extWall = time.Duration(float64(wall) * float64(ext) / float64(ext+flx))
	}
	moved := int64(nelr) * sem.NFaces * int64(n*n) * NumFields
	s.replay("full2face_cmt", start, extWall, sem.OpCount{Load: moved, Store: moved})
	if !flux {
		return fluxBill{}
	}
	return fluxBill{start: start.Add(extWall), wall: wall - extWall, points: nelr * sem.NFaces * n * n}
}

// chargeSurfaceFlux bills and reports the surface flux a faceRuns pass
// evaluated, as the compute_flux_surface sweep.
func (s *Solver) chargeSurfaceFlux(b fluxBill) {
	if b.points == 0 {
		return
	}
	l := int64(b.points)
	s.replay("compute_flux_surface", b.start, b.wall, sem.OpCount{Mul: l * 6, Add: l * 4, Load: l * 2, Store: l})
}

// replay charges ops for work already done in the wall interval [start,
// start+wall) and reports it as one call of the kernel region name, under
// that region's accounting phase — what a Region around the work and the
// charge would have produced.
func (s *Solver) replay(name string, start time.Time, wall time.Duration, ops sem.OpCount) {
	clock := s.Rank.Clock()
	prev := clock.SetPhase(obs.PhaseOf(name, obs.CatKernel))
	vt0 := clock.Now()
	s.chargeCompute(ops, pointwiseTraits)
	s.Rec.Add(name, obs.CatKernel, start, wall, vt0, clock.Now())
	clock.SetPhase(prev)
}

// faceElems runs the surface pass over elements [lo, hi) of the current
// run on pool slot slot. Every element is the same work, so the slot's
// stopwatch (extraction, flux) clocks the first one only.
func (s *Solver) faceElems(slot, lo, hi int) {
	job := &s.face
	n := s.Cfg.N
	n2, n3 := n*n, n*n*n
	fpe := sem.NFaces * n2
	first := job.elo + lo
	var t0, t1 time.Time
	if job.flux {
		t0 = time.Now()
	}
	for e := first; e < job.elo+hi; e++ {
		for c := 0; c < NumFields; c++ {
			sem.Full2Face(n, job.in[c][e*n3:(e+1)*n3], 1, s.faceU[c][e*fpe:(e+1)*fpe])
		}
		if !job.flux {
			continue
		}
		if e == first {
			t1 = time.Now()
		}
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
		if e == first {
			s.volSlots[slot].face = [2]time.Duration{t1.Sub(t0), time.Since(t1)}
		}
	}
}

// The stages of the volume pipeline a slot's stopwatch separates; all
// but volRest are recorder regions.
const (
	volFlux = iota // compute_flux: Euler (+ viscous) flux, three directions
	volFace        // full2face_cmt: viscous flux traces
	volR           // ax_deriv_dudr
	volS           // ax_deriv_duds
	volT           // ax_deriv_dudt
	volRest        // metric scaling + negation into rhs (unnamed, as ever)
	numVolStages
)

// derivRegion names the region of each derivative direction.
var derivRegion = [3]string{"ax_deriv_dudr", "ax_deriv_duds", "ax_deriv_dudt"}

// volSlot is one pool slot's private state in the volume pipeline.
type volSlot struct {
	buf  []float64                   // 6*N^3: the element's three flux components, then their derivatives
	secs [numVolStages]time.Duration // this run's stopwatch totals
	face [2]time.Duration            // faceRuns' stopwatch, one element: extraction, surface flux
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
// over the given element runs, one element at a time: for each field the
// three directional fluxes are evaluated into slot scratch, D is applied
// along r, s and t while they are in cache, and the divergence, scaled by
// the constant metric and negated, goes straight into s.rhs. In the
// viscous path the flux carries the viscous terms and its face traces
// are extracted here too (both sides then average them via gs, a
// BR1-style viscous interface flux). Per point this is the arithmetic of
// a sweep-per-(field, direction) formulation in the same order, so the
// state is bit-identical to one; volumeCharges then bills the run as
// those sweeps.
func (s *Solver) volumeRuns(in *[NumFields][]float64, runs [][2]int, viscous bool) {
	s.vol.in, s.vol.viscous = in, viscous
	s.vol.kern = sem.NewElemDeriv(s.Cfg.Variant, s.Ref)
	for _, run := range runs {
		for i := range s.volSlots {
			s.volSlots[i].secs = [numVolStages]time.Duration{} // a slot a short run leaves idle reports nothing
		}
		s.vol.elo = run[0]
		start := time.Now()
		s.pool.ForSlots(run[1]-run[0], s.volBody)
		s.volumeCharges(run[1]-run[0], viscous, start, time.Since(start))
	}
}

// volumeElems runs the volume pipeline over elements [lo, hi) of the
// current run on pool slot slot. Every element is the same work, so the
// slot's stopwatch clocks the first one only, as faceElems' does.
func (s *Solver) volumeElems(slot, lo, hi int) {
	job, sl := &s.vol, &s.volSlots[slot]
	in := job.in
	n := s.Cfg.N
	n3 := n * n * n
	fpe := sem.NFaces * n * n
	rx := s.rx
	// Scratch: the three flux components, then their derivatives. (Sliced
	// to a length the compiler can see is n3, which keeps bounds checks
	// out of the pointwise loops.)
	f0, f1, f2 := sl.buf[:n3], sl.buf[n3:][:n3], sl.buf[2*n3:][:n3]
	g0, g1, g2 := sl.buf[3*n3:][:n3], sl.buf[4*n3:][:n3], sl.buf[5*n3:][:n3]
	f, g := [3][]float64{f0, f1, f2}, [3][]float64{g0, g1, g2}
	// The stopwatch: while clocked, lap(stage) books the time since the
	// previous lap. It totals locally — slots are neighbours in memory —
	// and hands over once, after the first element.
	t0 := time.Now()
	clocked := true
	var last time.Duration
	var secs [numVolStages]time.Duration
	lap := func(stage int) {
		if clocked {
			now := time.Since(t0)
			secs[stage] += now - last
			last = now
		}
	}
	for e := job.elo + lo; e < job.elo+hi; e++ {
		base := e * n3
		pr, en := s.prP[base:base+n3], in[IEnergy][base:base+n3]
		v0, v1, v2 := s.velP[0][base:base+n3], s.velP[1][base:base+n3], s.velP[2][base:base+n3]
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
			if job.viscous {
				if c != IRho { // no viscous mass flux
					for d := 0; d < 3; d++ {
						s.subViscousFlux(c, d, base, f[d])
					}
				}
				lap(volFlux)
				faces := s.faceF[c][e*fpe : (e+1)*fpe]
				for d := 0; d < 3; d++ {
					sem.Full2FaceDir(n, src[d], 1, faces, d)
				}
				lap(volFace)
			} else {
				lap(volFlux)
			}
			for d := 0; d < 3; d++ {
				job.kern.Apply(sem.Direction(d), src[d], g[d])
				lap(volR + d)
			}
			rc := s.rhs[c][base : base+n3]
			for i := 0; i < n3; i++ {
				rc[i] = -(((0 + rx*g0[i]) + rx*g1[i]) + rx*g2[i])
			}
			lap(volRest)
		}
		if clocked {
			sl.secs, clocked = secs, false
		}
	}
}

// volumeCharges bills one run of nelr elements that volumeElems finished
// in the wall interval [start, start+wall) the way whole-rank sweeps
// would have: one charge per (field, direction) flux evaluation, trace
// extraction and derivative, in that order and under the rhs phase, then
// the divergence's charge outside it — the virtual clock, its per-phase
// split and every trace span's virtual extent come out bit for bit what
// that sequence gives. (One charge per element would not: the model's
// products round differently.) The regions get one call per sweep, each
// stage's calls tiling the share of wall the slots' stopwatches saw for
// it on their first element.
func (s *Solver) volumeCharges(nelr int, viscous bool, start time.Time, wall time.Duration) {
	n := s.Cfg.N
	volr := int64(nelr) * int64(n*n*n)
	var secs [numVolStages]time.Duration
	var sum time.Duration
	for i := range s.volSlots {
		for k, d := range s.volSlots[i].secs {
			secs[k] += d
			sum += d
		}
	}
	if sum > 0 {
		for k := range secs {
			secs[k] = time.Duration(float64(wall) * float64(secs[k]) / float64(sum))
		}
	}

	clock := s.Rank.Clock()
	at := start // where the next call starts in the wall domain
	call := func(name string, dur time.Duration, vt0 float64) {
		s.Rec.Add(name, obs.CatKernel, at, dur, vt0, clock.Now())
		at = at.Add(dur)
	}
	prev := clock.SetPhase(obs.PhaseOf("compute_flux", obs.CatKernel))
	moved := int64(nelr) * 2 * int64(n*n)
	for c := 0; c < NumFields; c++ {
		for d := 0; d < 3; d++ {
			vt0 := clock.Now()
			if viscous {
				s.chargeCompute(sem.OpCount{Mul: volr * 6, Add: volr * 6, Load: volr * 8, Store: volr}, pointwiseTraits)
			}
			s.chargeCompute(sem.OpCount{Mul: volr, Add: volr, Load: volr * 2, Store: volr}, pointwiseTraits)
			call("compute_flux", secs[volFlux]/(3*NumFields), vt0)
			if viscous {
				vt0 = clock.Now()
				s.chargeCompute(sem.OpCount{Load: moved, Store: moved}, pointwiseTraits)
				call("full2face_cmt", secs[volFace]/(3*NumFields), vt0)
			}
			vt0 = clock.Now()
			s.chargeCompute(sem.DerivOps(n, nelr), s.derivTraits[d])
			call(derivRegion[d], secs[volR+d]/NumFields, vt0)
		}
	}
	clock.SetPhase(prev)
	s.chargeCompute(sem.OpCount{Mul: volr * 3 * NumFields, Add: volr * 4 * NumFields,
		Load: volr * 2, Store: volr}, pointwiseTraits)
}

// rhsTail is everything after the face exchange — numerical flux + lift,
// source terms, and dealiasing — identical in the blocking and overlap
// paths (both run it over all elements once the exchanged traces are
// complete).
func (s *Solver) rhsTail() {
	n := s.Cfg.N
	nel := s.Local.Nel
	vol := nel * n * n * n
	faceLen := sem.FaceSliceLen(n, nel)

	// --- numerical flux (Lax-Friedrichs) and lift, one element and one
	// face at a time: the correction (f - f*).n at each exchanged face
	// point, scaled by the diagonal lift factor, added into the volume
	// residual of every field while the face's traces are in cache —
	// faces in sem order, so each volume point sees the additions the
	// five whole-rank Face2FullAdd sweeps made, in their order. Domain
	// boundary faces see a mirror ghost state (slip wall) or no
	// correction (freestream).
	reg := s.Rec.Region("numerical_flux", obs.CatKernel)
	s.pool.ForSlots(nel, s.liftBody)
	s.chargeCompute(sem.OpCount{Mul: int64(faceLen) * NumFields * 4, Add: int64(faceLen) * NumFields * 4,
		Load: int64(faceLen) * NumFields * 4, Store: int64(faceLen) * NumFields}, pointwiseTraits)
	reg.End()

	// --- source terms: the conservation law's R (multiphase coupling).
	// Zero — i.e. absent — in the paper's current CMT-bone; populated by
	// couplers such as the particle cloud.
	if s.Source[0] != nil {
		reg = s.Rec.Region("source_terms", obs.CatKernel)
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
		reg.End()
	}

	// --- dealiasing: map each field to the fine mesh and back (cost
	// path of the dealiased flux evaluation).
	if s.Cfg.Dealias {
		reg = s.Rec.Region("dealias", obs.CatKernel)
		var ops sem.OpCount
		for c := 0; c < NumFields; c++ {
			ops = ops.Plus(s.Ref.DealiasRoundTripPool(s.pool, s.rhs[c], nel, s.deaBufs))
		}
		s.chargeCompute(ops, pointwiseTraits)
		reg.End()
	}
}

// liftElems is the numerical flux and lift over elements [lo, hi) on
// pool slot slot (whose scratch holds one face of corrections per field).
func (s *Solver) liftElems(slot, lo, hi int) {
	n := s.Cfg.N
	n2, n3 := n*n, n*n*n
	lam := s.lambda
	wall := s.Cfg.BC == BCWall
	var w [NumFields][]float64
	for c := range w {
		w[c] = s.volSlots[slot].buf[c*n2:][:n2]
	}
	var corr [NumFields]float64
	for e := lo; e < hi; e++ {
		for f := 0; f < sem.NFaces; f++ {
			d := sem.FaceDir(f)
			sign := float64(sem.FaceSign(f))
			scale := s.liftScale[d]
			base := (e*sem.NFaces + f) * n2
			switch {
			case !s.bndFace[e*sem.NFaces+f]:
				// (f - f*).n with the Lax-Friedrichs flux, written in
				// terms of the exchanged in+out sums.
				for c := 0; c < NumFields; c++ {
					fc, uc := s.faceF[c][base:base+n2], s.faceU[c][base:base+n2]
					fsum, usum := s.exF[c][base:base+n2], s.exU[c][base:base+n2]
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
				// Freestream: a zero correction, still added — x + 0 is x
				// for every x but -0.
				for c := range w {
					clear(w[c])
				}
			}
			for c := 0; c < NumFields; c++ {
				sem.AddFace(n, f, w[c], s.rhs[c][e*n3:(e+1)*n3])
			}
		}
	}
}
