package solver

import (
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/sem"
)

// The pointwise kernels (primitives, fluxes, divergence, lift
// corrections, Runge-Kutta stages, viscous terms) are emitted by
// internal/sem/gen into pointwise_gen.go and its AVX2 siblings.
//go:generate go run ../sem/gen -solver .

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
// conservation law for the state s.vol names and runs the Runge-Kutta
// stage update s.post names over it. One call is one pass through every
// kernel of the paper's Figure 4 profile; with Mu > 0 the viscous
// (compressible Navier-Stokes) flux path adds the gradient kernels of the
// parent code. Before the exchange the inviscid path extracts the traces
// and the surface flux only: its volume pass runs per element inside the
// post-exchange pass, into slot scratch, and is billed here, where its
// whole-rank sweeps stood. The viscous path's flux traces come from its
// volume pass, which runs before the exchange into s.rhs. The overlap
// path (computeRHSOverlap) runs the same helpers over interior/boundary
// element runs instead of one full run; every kernel is element-local,
// so both orders are bit-identical.
func (s *Solver) computeRHS() {
	viscous := s.vol.viscous
	all := [][2]int{{0, s.Local.Nel}} // one run: the split path's helpers and pool partitions

	s.chargeAhead()
	nf := s.faceRuns(all, !viscous)
	if viscous {
		s.volumeRuns(all)
	} else {
		s.chargeVolume(all)
	}
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

	s.postRuns(all)
	s.chargePost()
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
func (s *Solver) faceRuns(runs [][2]int, flux bool) int {
	s.face.flux = flux
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
			sem.Full2Face(n, s.vol.in[c][e*n3:(e+1)*n3], 1, s.faceU[c][e*fpe:(e+1)*fpe])
		}
		sl.lap(faceExt)
		if job.flux {
			for f := 0; f < sem.NFaces; f++ {
				// The normal Euler flux of eulerFlux, on whole face slabs.
				lo, hi := e*fpe+f*n2, e*fpe+(f+1)*n2
				u, fl := &s.faceU, &s.faceF
				surfaceFlux[sem.FaceDir(f)](u[IRho][lo:hi], u[IMomX][lo:hi], u[IMomY][lo:hi], u[IMomZ][lo:hi], u[IEnergy][lo:hi],
					fl[IRho][lo:hi], fl[IMomX][lo:hi], fl[IMomY][lo:hi], fl[IMomZ][lo:hi], fl[IEnergy][lo:hi])
			}
			sl.lap(faceFlux)
		}
		sl.t0 = time.Time{}
	}
}

// surfaceFlux and momentumFlux hold the generated kernels of each
// direction (pointwise_gen.go).
var (
	surfaceFlux  = [3]func(rho, mx, my, mz, en, f0, f1, f2, f3, f4 []float64){surfaceFluxX, surfaceFluxY, surfaceFluxZ}
	momentumFlux = [3]func(u, v0, v1, v2, pr, f0, f1, f2 []float64){momentumFluxX, momentumFluxY, momentumFluxZ}
)

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

// volJob is the right-hand side's volume pass: the state it reads, the
// derivative kernels, and the run volumeElems is working through. It
// lives in the Solver (with the closures over it built once, in New) so
// that a run dispatches to the pool without allocating.
type volJob struct {
	in      *[NumFields][]float64
	kern    sem.ElemDeriv
	elo     int
	viscous bool
}

// volumeRuns is the viscous derivative kernel (ax_) phase over the given
// element runs, into s.rhs: volumeElem on every element, each run billed
// as the sweeps it replaces once it is done. (The inviscid volume pass
// runs inside postRuns.)
func (s *Solver) volumeRuns(runs [][2]int) {
	for _, run := range runs {
		s.vol.elo = run[0]
		start := time.Now()
		s.pool.ForSlots(run[1]-run[0], s.volBody)
		s.timePass(start)
		s.charge(s.sched.volume, run[1]-run[0])
	}
}

// volumeElems runs the viscous volume pass over elements [lo, hi) of the
// current run on pool slot slot.
func (s *Solver) volumeElems(slot, lo, hi int) {
	sl := &s.volSlots[slot]
	n3 := s.Cfg.N * s.Cfg.N * s.Cfg.N
	var dst [NumFields][]float64
	sl.t0, sl.last = time.Now(), 0
	for e := s.vol.elo + lo; e < s.vol.elo+hi; e++ {
		for c := range dst {
			dst[c] = s.rhs[c][e*n3:][:n3]
		}
		s.volumeElem(e, sl, sl.buf, &dst)
		sl.t0 = time.Time{}
	}
}

// volumeElem is the derivative kernel (ax_) phase — the dominant cost —
// of element e, on slot sl's stopwatch with scratch buf: the element's
// velocity and pressure are formed in scratch, then for each field the
// three directional fluxes are evaluated into scratch, D is applied along
// r, s and t while they are in cache, and the divergence, scaled by the
// constant metric and negated, goes into dst (the element's residual,
// N^3 points per field). In the viscous path the flux carries the
// viscous terms and its face traces are extracted here too (both sides
// then average them via gs, a BR1-style viscous interface flux). Per
// point this is the arithmetic of a sweep-per-(field, direction)
// formulation in the same order, so the state is bit-identical to one.
func (s *Solver) volumeElem(e int, sl *volSlot, buf []float64, dst *[NumFields][]float64) {
	job := &s.vol
	in := job.in
	n := s.Cfg.N
	n3 := n * n * n
	fpe := sem.NFaces * n * n
	// Scratch: the three flux components, then their derivatives, the
	// velocity and the pressure. (Sliced to a length the compiler can see
	// is n3, which keeps bounds checks out of the pointwise loops.)
	f0, f1, f2 := buf[:n3], buf[n3:][:n3], buf[2*n3:][:n3]
	g0, g1, g2 := buf[3*n3:][:n3], buf[4*n3:][:n3], buf[5*n3:][:n3]
	v0, v1, v2, pr := buf[6*n3:][:n3], buf[7*n3:][:n3], buf[8*n3:][:n3], buf[9*n3:][:n3]
	f, g, vel := [3][]float64{f0, f1, f2}, [3][]float64{g0, g1, g2}, [3][]float64{v0, v1, v2}
	vis := buf[10*n3:] // viscous: elemGradients' scratch
	base := e * n3
	rho, en := in[IRho][base:][:n3], in[IEnergy][base:][:n3]
	mx, my, mz := in[IMomX][base:][:n3], in[IMomY][base:][:n3], in[IMomZ][base:][:n3]
	primitives(rho, mx, my, mz, en, v0, v1, v2, pr)
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
			energyFlux(en, pr, v0, v1, v2, f0, f1, f2)
		default: // the normal component carries the pressure
			momentumFlux[c-IMomX](in[c][base:][:n3], v0, v1, v2, pr, f0, f1, f2)
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
		divergence(g0, g1, g2, dst[c][:n3], s.rx)
		sl.lap(volRest)
	}
}

// postJob is the Runge-Kutta stage postElems finishes (1 and 2 write u1,
// 3 writes U and filters it) and the run it is working through.
type postJob struct {
	stage int
	dt    float64
	elo   int
}

// postRuns is everything after the face exchange, in one pass over the
// elements of the given runs: the inviscid volume pass, numerical flux +
// lift, source terms, dealiasing, the stage update and, after the last
// stage, the spectral filter. The blocking path runs it over all
// elements once the exchanged traces are complete; the inviscid overlap
// path over the interior runs inside the exchange window and over the
// boundary runs after it. The once-billed primitives and the volume
// calls charged for these runs ahead of the pass (chargeVolume) take its
// wall first; chargePost bills the rest.
func (s *Solver) postRuns(runs [][2]int) {
	start := time.Now()
	for _, run := range runs {
		s.post.elo = run[0]
		s.pool.ForSlots(run[1]-run[0], s.postBody)
	}
	s.timePass(start)
	tile(s.ledger[:s.ahead], &s.pass)
	tile(s.ledger[s.owed:], &s.pass)
	s.owed = len(s.ledger)
}

// chargePost bills the sweeps the post-exchange pass replaces, for every
// element and in their order, and settles the right-hand side's calls.
func (s *Solver) chargePost() {
	nel := s.Local.Nel
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

// postElems runs the post-exchange pass over elements [lo, hi) of the
// current run on pool slot slot. The element's residual lives in slot
// scratch on the inviscid path (its volume pass runs here) and in s.rhs
// on the viscous one. Per point every step is the whole-rank sweep's, in
// the sweeps' order, so the state is bit-identical to theirs; the update
// reads u1 at a point before it writes it there, so stage 2 updates u1
// in place, and each element's volume pass reads its own points of the
// state before its update writes them.
func (s *Solver) postElems(slot, lo, hi int) {
	job, sl := &s.post, &s.volSlots[slot]
	n := s.Cfg.N
	n3 := n * n * n
	dt := job.dt
	volume := !s.vol.viscous   // the volume pass runs here, into slot scratch
	var r [NumFields][]float64 // the element's residual
	scr := sl.buf              // everything else: volume, lift, dealias and filter scratch
	if volume {
		for c := range r {
			r[c] = sl.buf[c*n3:][:n3]
		}
		scr = sl.buf[NumFields*n3:]
	}
	var w [NumFields][]float64 // the lift's scratch: one face of corrections per field
	for c := range w {
		w[c] = scr[c*n*n:][:n*n]
	}
	sl.t0, sl.last = time.Now(), 0
	for e := job.elo + lo; e < job.elo+hi; e++ {
		base := e * n3
		if volume {
			s.volumeElem(e, sl, scr, &r)
		} else {
			for c := range r {
				r[c] = s.rhs[c][base:][:n3]
			}
		}
		s.liftElem(e, &w, &r)
		sl.lap(postLift)
		// Source terms: the conservation law's R (multiphase coupling).
		// Zero — i.e. absent — in the paper's current CMT-bone; populated
		// by couplers such as the particle cloud.
		if s.Source[0] != nil {
			for c := 0; c < NumFields; c++ {
				src, rc := s.Source[c][base:][:n3], r[c]
				for i := range rc {
					rc[i] += src[i]
				}
			}
			sl.lap(postSource)
		}
		// Dealiasing: each field to the fine mesh and back (cost path of
		// the dealiased flux evaluation).
		if s.Cfg.Dealias {
			uf := scr[:s.Ref.NF*s.Ref.NF*s.Ref.NF]
			for c := 0; c < NumFields; c++ {
				s.Ref.DealiasRoundTrip(r[c], 1, uf, scr[len(uf):])
			}
			sl.lap(postDeal)
		}
		for c := 0; c < NumFields; c++ {
			uc, rc, u1 := s.U[c][base:][:n3], r[c], s.u1[c][base:][:n3]
			switch job.stage {
			case 1: // u1 = U + dt RHS(U)
				rkStage1(uc, rc, u1, dt)
			case 2: // u1 = 3/4 U + 1/4 (u1 + dt RHS(u1))
				rkStage2(uc, rc, u1, dt)
			case 3: // U = 1/3 U + 2/3 (u1 + dt RHS(u1))
				rkStage3(uc, rc, u1, dt)
			}
		}
		sl.lap(postUpdate)
		// Spectral filter (shock-capturing proxy): attenuate the highest
		// Legendre modes of every conserved field.
		if job.stage == 3 && s.filterMat != nil {
			for c := 0; c < NumFields; c++ {
				sem.FilterElements(s.filterMat, n, s.U[c][base:][:n3], 1, s.Cfg.FilterStrength, scr)
			}
			sl.lap(postFilter)
		}
		sl.t0 = time.Time{}
	}
}

// liftElem is the numerical flux (Lax-Friedrichs) and lift of element e,
// one face at a time: the correction (f - f*).n at each face point,
// scaled by the diagonal lift factor, into w, then added into the
// element's residual r of every field while the face's traces are in
// cache — faces in sem order, so each volume point sees the additions
// the five whole-rank Face2FullAdd sweeps made, in their order. A face paired on
// this rank forms the in+out sums from its partner's traces (IEEE
// addition commutes, so they are the gather-scatter's bits); a
// rank-boundary face reads the exchanged sums. Domain boundary faces see
// a mirror ghost state (slip wall) or no correction (freestream).
func (s *Solver) liftElem(e int, w, r *[NumFields][]float64) {
	n := s.Cfg.N
	n2 := n * n
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
				liftPair(fc, uc, s.faceF[c][po:po+n2], s.faceU[c][po:po+n2], w[c], scale, sign, lam)
			}
		case l != domainBoundary:
			own := int(^l) * n2
			for c := 0; c < NumFields; c++ {
				fc, uc := s.ownF[c][own:own+n2], s.ownU[c][own:own+n2]
				liftBoundary(fc, uc, s.faceF[c][base:base+n2], s.faceU[c][base:base+n2], w[c], scale, sign, lam)
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
			sem.AddFace(n, f, w[c], r[c])
		}
	}
}
