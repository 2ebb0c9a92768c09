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
// at point q of a slip-wall face whose traces are u: the ghost state
// mirrors the interior trace with the normal momentum negated, so with
// the Lax-Friedrichs flux (f - f*).n = sign*(F_in - F_ghost)/2 -
// lambda*(u_in - u_ghost)/2. Mass and energy fluxes cancel exactly (the
// box is sealed); normal momentum feels the wall's pressure reaction.
func wallCorrection(d int, sign float64, u *faceSlabs, q int, lam float64, out *[NumFields]float64) {
	var us, ug, fin, fg [NumFields]float64
	for cc := 0; cc < NumFields; cc++ {
		us[cc] = u[cc][q]
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
// conservation law for the state s.in names and runs the Runge-Kutta
// stage update s.post names over it: one pass through every kernel of
// the paper's Figure 4 profile (Mu > 0 adds the compressible
// Navier-Stokes gradient kernels). Before the exchange the face pass
// extracts the traces that outlive it; the volume pass runs per element
// inside the post-exchange pass and is billed here, where its whole-rank
// sweeps stood. The overlap path (computeRHSOverlap) runs the same
// element-local helpers over interior/boundary runs, bit-identically.
func (s *Solver) computeRHS() {
	all := [][2]int{{0, s.Local.Nel}} // one run: the split path's helpers and pool partitions

	s.chargeAhead()
	nf := s.faceRuns(all)
	s.chargeVolume(all)
	s.charge(s.sched.surface, nf) // where the inviscid surface-flux sweep stood

	// --- gs_op: nearest-neighbor exchange of the rank-boundary state and
	// flux traces, in place: afterwards sumU/sumF hold the in+out sums.
	reg := s.Rec.Region("gs_op", obs.CatGS)
	if s.Cfg.PackedExchange {
		// gs_op_fields: one packed message per neighbor per exchange.
		s.gsh.OpFields(s.sumU[:], comm.OpSum, s.gsh.Method())
		s.gsh.OpFields(s.sumF[:], comm.OpSum, s.gsh.Method())
	} else {
		for c := 0; c < NumFields; c++ {
			s.gsh.Op(s.sumU[c], comm.OpSum)
			s.gsh.Op(s.sumF[c], comm.OpSum)
		}
	}
	reg.End()

	s.postRuns(all)
	s.chargePost()
}

// faceRuns is full2face_cmt over the given element runs: it gathers the
// traces that outlive the pass while the element is in cache — the
// rank-boundary faces' into sumU and their flux into sumF (inviscid, the
// surface compute_flux of the traces; viscous, the viscous flux traces), the
// in-rank faces' that planTraces leaves to it into keep. It bills
// full2face_cmt and returns how many elements it covered, for the caller
// to bill an inviscid schedule's surface flux where that sweep stood.
func (s *Solver) faceRuns(runs [][2]int) int {
	nelr := 0
	start := time.Now()
	for _, run := range runs {
		s.faceElo = run[0]
		s.pool.ForSlots(run[1]-run[0], s.faceBody)
		nelr += run[1] - run[0]
	}
	s.timePass(start)
	s.charge(s.sched.face, nelr)
	return nelr
}

// faceElems runs the surface pass over elements [lo, hi) of the current
// run on pool slot slot: it gathers the state traces that outlive it
// (the rank-boundary faces' into sumU, the split pairs' into keep) and
// forms the flux traces a lift reads before the element's volume pass
// runs — inviscid the rank-boundary faces' normal flux, viscous theirs
// and every kept face's (keptFlux) viscous flux traces.
func (s *Solver) faceElems(slot, lo, hi int) {
	n := s.Cfg.N
	n2, n3 := n*n, n*n*n
	sl, viscous := &s.volSlots[slot], s.Cfg.Mu > 0
	var u, fl, tr faceSlabs // views of sumU, sumF and keep; a later face's state traces
	prim, scr := sl.buf[:5*n3], tr.lay(sl.buf[5*n3:], n2)
	sl.t0, sl.last = time.Now(), 0
	for e := s.faceElo + lo; e < s.faceElo+hi; e++ {
		formed := false
		for f := 0; f < sem.NFaces; f++ {
			a := e*sem.NFaces + f
			l, k := s.link[a], int(s.keepAt[a])
			st := &u
			switch {
			case l < 0 && l != domainBoundary:
				u.at(&s.sumU, int(^l)*n2, n2)
				fl.at(&s.sumF, int(^l)*n2, n2)
			case k >= 0 && k < s.keepPass:
				u.at(&s.keep, k*n2, n2)
			case k < 0 || !viscous:
				continue
			default: // a later face: only its flux traces are kept
				st = &tr
			}
			s.gatherTrace(e, f, st)
			sl.lap(faceExt)
			switch {
			case viscous:
				if k >= 0 {
					fl.at(&s.keep, s.keptFlux(k)*n2, n2)
				}
				if !formed {
					s.elemPrimitives(e, prim)
					sl.lap(volPrim)
					formed = true
				}
				s.faceViscousFlux(f, prim, st, scr, &fl, sl)
			case l < 0:
				normalFlux(sem.FaceDir(f), &u, &fl)
				sl.lap(faceFlux)
			}
		}
		sl.t0 = time.Time{}
	}
}

// faceSlabs is one face of every field: N^2 points each.
type faceSlabs [NumFields][]float64

// at points fs at the face at offset off of the face arrays a.
func (fs *faceSlabs) at(a *[NumFields][]float64, off, n2 int) {
	for c := range fs {
		fs[c] = a[c][off:][:n2]
	}
}

// lay points fs at the head of scr, n2 points a field, and returns the
// rest of scr.
func (fs *faceSlabs) lay(scr []float64, n2 int) []float64 {
	for c := range fs {
		fs[c], scr = scr[:n2], scr[n2:]
	}
	return scr
}

// gatherTrace copies face f of element e of the state the right-hand
// side reads into dst.
func (s *Solver) gatherTrace(e, f int, dst *faceSlabs) {
	n := s.Cfg.N
	n3 := n * n * n
	for c := range dst {
		sem.GatherFace(n, f, s.in[c][e*n3:][:n3], dst[c])
	}
}

// normalFlux fills fl with the normal Euler flux (eulerFlux's, along
// direction d) of the face traces u.
func normalFlux(d int, u, fl *faceSlabs) {
	surfaceFlux[d](u[IRho], u[IMomX], u[IMomY], u[IMomZ], u[IEnergy], fl[IRho], fl[IMomX], fl[IMomY], fl[IMomZ], fl[IEnergy])
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

// volumeElem is the derivative kernel (ax_) phase — the dominant cost —
// of element e, on slot sl's stopwatch with scratch buf: the element's
// velocity and pressure are formed in scratch, then for each field the
// three directional fluxes, D along r, s and t while they are in cache,
// and the divergence, scaled by the constant metric and negated, into
// dst (the element's residual). On the viscous path (own set) the flux
// carries the viscous terms and its face traces, which the lift reads,
// go to own. Per point this is the arithmetic of a sweep-per-(field,
// direction) formulation in the same order, so the bits are its.
func (s *Solver) volumeElem(e int, sl *volSlot, buf []float64, dst *[NumFields][]float64, own *[sem.NFaces]faceSlabs) {
	in := s.in
	n := s.Cfg.N
	n3 := n * n * n
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
	if own != nil {
		s.elemGradients(vis, rho, vel, pr, sl)
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
		if own != nil && c != IRho { // no viscous mass flux
			for d := 0; d < 3; d++ {
				s.subViscousFlux(c, d, vel, vis, f[d])
			}
		}
		sl.lap(volFlux)
		if own != nil {
			for fc := range own {
				sem.GatherFace(n, fc, src[sem.FaceDir(fc)], own[fc][c])
			}
			sl.lap(volFace)
		}
		for d := 0; d < 3; d++ {
			s.kern.Apply(sem.Direction(d), src[d], g[d])
			sl.lap(volR + d)
		}
		divergence(g0, g1, g2, dst[c][:n3], s.rx)
		sl.lap(volRest)
	}
}

// postJob is the Runge-Kutta stage postElems finishes (1 and 2 write u1,
// 3 writes U and filters it; 0, for tests, stores the residual in u1)
// and the run it is working through.
type postJob struct {
	stage int
	dt    float64
	elo   int
}

// postRuns is everything after the face exchange, in one pass over the
// elements of the given runs: the volume pass, numerical flux + lift,
// source terms, dealiasing, the stage update and, after the last stage,
// the spectral filter. The blocking path runs it over all elements once
// the exchanged traces are complete; the overlap path over the interior
// runs inside the exchange window and over the boundary runs after it.
// The once-billed primitives and gradient and the volume calls charged
// for these runs ahead of the pass (chargeVolume) take its wall first;
// chargePost bills the rest.
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
// current run on pool slot slot. The slot's scratch holds the element's
// residual, then (viscous) its own flux traces, then the volume, lift,
// dealias and filter scratch. Per point every step is the whole-rank
// sweep's, in the sweeps' order, so the bits are theirs; the update
// reads u1 at a point before it writes it there (stage 2 updates u1 in
// place), after the element's volume pass read its state.
func (s *Solver) postElems(slot, lo, hi int) {
	job, sl := &s.post, &s.volSlots[slot]
	n := s.Cfg.N
	n2, n3 := n*n, n*n*n
	dt := job.dt
	var r [NumFields][]float64 // the element's residual
	for c := range r {
		r[c] = sl.buf[c*n3:][:n3]
	}
	scr := sl.buf[NumFields*n3:]
	var ownF [sem.NFaces]faceSlabs
	var own *[sem.NFaces]faceSlabs // viscous: the element's own flux traces
	if s.Cfg.Mu > 0 {
		own = &ownF
		for f := range ownF {
			scr = ownF[f].lay(scr, n2)
		}
	}
	lb := newLiftBufs(scr, n2)
	sl.t0, sl.last = time.Now(), 0
	for e := job.elo + lo; e < job.elo+hi; e++ {
		base := e * n3
		s.volumeElem(e, sl, scr, &r, own)
		s.liftElem(e, sl, &lb, &r, own)
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
			case 0:
				copy(u1, rc)
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

// liftBufs is the lift's slot scratch, one face of each: the
// corrections, the element's traces of the state and of the normal flux,
// and its partner's.
type liftBufs struct{ w, u, f, uo, fo faceSlabs }

// liftScratchLen is the length of slot scratch newLiftBufs takes at
// order n.
func liftScratchLen(n int) int { return 5 * NumFields * n * n }

// keptFlux is where in keep the face pass stores the viscous flux trace of
// the face kept at k: its correction's slot (read, then overwritten, by
// the partner's lift), or keepF on for a split pair's.
func (s *Solver) keptFlux(k int) int {
	if k < s.keepPass {
		return s.keepF + k
	}
	return k
}

// ownTracesLen is the slot scratch a viscous element's own flux traces take.
func ownTracesLen(n int) int { return sem.NFaces * NumFields * n * n }

// newLiftBufs lays the lift's buffers out over scr, n2 points a face.
func newLiftBufs(scr []float64, n2 int) liftBufs {
	var b liftBufs
	for _, fs := range []*faceSlabs{&b.w, &b.u, &b.f, &b.uo, &b.fo} {
		scr = fs.lay(scr, n2)
	}
	return b
}

// liftElem is the numerical flux (Lax-Friedrichs) and lift of element e,
// one face at a time, on slot sl's stopwatch with buffers b: the
// correction (f - f*).n at each face point, scaled by the diagonal lift
// factor, into b.w, then added into the element's residual r of every
// field while the face's traces are in cache — faces in sem order, so
// each volume point sees the additions the five whole-rank Face2FullAdd
// sweeps made, in their order. The lift gathers the traces it needs: the
// element's own from the state it reads (the element is updated only
// after its lift), a partner's on this rank from the partner's state,
// which is not updated yet either, or from keep where planTraces had the
// face pass store it. Inviscid, it forms both sides' normal Euler flux
// from them; viscous (own set), the flux traces are its volume pass's
// (own) and the face pass's (keep). A face paired on this rank forms the in+out
// sums from its partner's traces (IEEE addition commutes, so they are the
// gather-scatter's bits), and when the partner lifts later its correction
// too, with the same operands, into keep; a face whose partner lifted
// first adds the correction found there. A rank-boundary face reads the
// exchanged sums. Domain boundary faces see a mirror ghost state (slip
// wall) or no correction (freestream). Gathers lap as full2face_cmt and
// fluxes as compute_flux_surface, the work those calls name.
func (s *Solver) liftElem(e int, sl *volSlot, b *liftBufs, r *[NumFields][]float64, own *[sem.NFaces]faceSlabs) {
	n := s.Cfg.N
	n2 := n * n
	lam := s.lambda
	wall := s.Cfg.BC == BCWall
	var corr [NumFields]float64
	var kw, ku, kuo, kwo, kfo faceSlabs // views of keep
	for f := 0; f < sem.NFaces; f++ {
		d := sem.FaceDir(f)
		sign := float64(sem.FaceSign(f))
		scale := s.liftScale[d]
		a := e*sem.NFaces + f
		l, k := s.link[a], int(s.keepAt[a])
		w, u, fc := &b.w, &b.u, &b.f
		if own != nil {
			fc = &own[f]
		}
		switch {
		case k >= s.keepPass:
			// The partner lifted first and left this face's correction.
			kw.at(&s.keep, k*n2, n2)
			w = &kw
		case l >= 0:
			// (f - f*).n with the Lax-Friedrichs flux, written in terms of
			// the in+out sums.
			if k >= 0 {
				ku.at(&s.keep, k*n2, n2)
				u = &ku
			} else {
				s.gatherTrace(e, f, u)
			}
			pe, pf := int(l)/sem.NFaces, int(l)%sem.NFaces
			uo, fo, ko := &b.uo, &b.fo, int(s.keepAt[l])
			if ko >= 0 && ko < s.keepPass {
				kuo.at(&s.keep, ko*n2, n2)
				uo = &kuo
			} else {
				s.gatherTrace(pe, pf, uo)
			}
			sl.lap(faceExt)
			switch {
			case own == nil:
				normalFlux(d, u, fc)
				normalFlux(d, uo, fo)
			case pe == e:
				fo = &own[pf]
			default:
				kfo.at(&s.keep, s.keptFlux(ko)*n2, n2)
				fo = &kfo
			}
			sl.lap(faceFlux)
			for c := 0; c < NumFields; c++ {
				liftPair(fc[c], u[c], fo[c], uo[c], w[c], scale, sign, lam)
			}
			if ko >= s.keepPass {
				// The partner lifts later: its correction, from the same
				// operands, waits in keep.
				kwo.at(&s.keep, ko*n2, n2)
				for c := 0; c < NumFields; c++ {
					liftPair(fo[c], uo[c], fc[c], u[c], kwo[c], scale, -sign, lam)
				}
			}
		case l != domainBoundary:
			s.gatherTrace(e, f, u)
			sl.lap(faceExt)
			if own == nil {
				normalFlux(d, u, fc)
			}
			at := int(^l) * n2
			sl.lap(faceFlux)
			for c := 0; c < NumFields; c++ {
				liftBoundary(fc[c], u[c], s.sumF[c][at:][:n2], s.sumU[c][at:][:n2], w[c], scale, sign, lam)
			}
		case wall:
			s.gatherTrace(e, f, u)
			sl.lap(faceExt)
			for q := 0; q < n2; q++ {
				wallCorrection(d, sign, u, q, lam, &corr)
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
		sl.lap(postLift)
	}
}
