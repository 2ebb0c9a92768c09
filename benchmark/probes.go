package main

import (
	"math"
	"time"

	"repro/internal/comm"
	"repro/internal/gs"
	"repro/internal/sem"
	"repro/internal/solver"
)

// probe is one layer probe: the fast-edge wall seconds of one unit of the
// layer's work at the workload's shapes, with the unit's exact flop
// count and the bytes its arrays occupy (computed from array sizes, not
// measured: cache misses are not in it).
type probe struct {
	Seconds float64 `json:"s"`
	Flops   int64   `json:"flops,omitempty"`
	Bytes   int64   `json:"bytes_computed,omitempty"`
}

type probeSet map[string]probe

// Probe units. Each sem unit is what one right-hand-side evaluation
// asks of that kernel; callsPerStep turns units into a step's worth.
const (
	pDeriv     = "sem.deriv"         // DerivPool r,s,t over 5 fields (15 calls)
	pGrad3     = "sem.grad3"         // Grad3FusedPool over vx,vy,vz,T (4 calls)
	pDealias   = "sem.dealias"       // DealiasRoundTripPool over 5 fields
	pFaceOut   = "sem.faces_extract" // Full2FacePool over 5 fields
	pFaceIn    = "sem.faces_add"     // Face2FullAddPool over 5 fields
	pGSOp      = "gs.op"             // one GS.Op on one face array
	pGSSetup   = "gs.setup"          // gs.Setup over the rank's face ids
	pAllreduce = "comm.allreduce"    // 1-float Allreduce(OpMax): the glmax shape
	pP2P       = "comm.p2p_rtt"      // ping-pong of one gs_op-sized message
)

// callsPerStep is how many probe units one timestep executes: three
// right-hand sides per SSP-RK3 step, ten gs_op per right-hand side
// (state and flux trace of five fields, unpacked), one glmax per step.
// The viscous path extracts the flux traces direction by direction on
// top of the state traces, about one more full extraction.
func callsPerStep(w workload) map[string]float64 {
	c := map[string]float64{pDeriv: 3, pFaceOut: 3, pFaceIn: 3, pGSOp: 30, pAllreduce: 1}
	if w.Mu > 0 {
		c[pGrad3] = 3
		c[pFaceOut] = 6
	}
	if w.Dealias {
		c[pDealias] = 3
	}
	return c
}

const probeSamples = 30

// prober times probe units on rank 0 while every rank executes them,
// so compute probes see the memory traffic of the neighbouring rank
// just as the workload does, and collective probes have their partner.
type prober struct {
	r   *comm.Rank
	rec *recorder
	out probeSet
}

// measure records the fast-edge time of one fn call. Calls faster than a
// millisecond are batched so the clock reads do not show; rank 0 picks
// the batch and broadcasts it because fn may be collective.
func (p *prober) measure(name string, flops, bytes int64, fn func()) {
	fn()
	p.r.Barrier()
	t0 := time.Now()
	fn()
	one := time.Since(t0).Seconds()
	batch := int(p.r.Bcast(0, []float64{math.Min(1000, math.Max(1, math.Ceil(1e-3/one)))})[0])

	samples := make([]float64, probeSamples)
	for i := range samples {
		p.r.Barrier()
		p.rec.begin(name)
		t0 := time.Now()
		for b := 0; b < batch; b++ {
			fn()
		}
		samples[i] = time.Since(t0).Seconds() / float64(batch)
		p.rec.end()
	}
	p.out[name] = probe{Seconds: fastEdge(samples), Flops: flops, Bytes: bytes}
}

// runProbes runs the layer probes on the finished round's solver: the
// same ranks, communicator, reference element, pool and array shapes
// the steps just used.
func runProbes(r *comm.Rank, s *solver.Solver, rec *recorder, which string, msgFloats int) probeSet {
	p := &prober{r: r, rec: rec, out: probeSet{}}
	rec.begin("probes")
	defer rec.end()
	if which == "all" {
		p.semProbes(s)
		p.gsProbes(s)
	}
	p.commProbes(msgFloats)
	return p.out
}

func (p *prober) semProbes(s *solver.Solver) {
	n, nel, ref, pl := s.Cfg.N, s.Nel(), s.Ref, s.Pool()
	vol := len(s.U[0])
	faceLen := sem.FaceSliceLen(n, nel)
	const f8 = 8 // bytes per float64

	var src [solver.NumFields][]float64
	for c := range src {
		src[c] = append([]float64(nil), s.U[c]...)
	}
	d := [3][]float64{make([]float64, vol), make([]float64, vol), make([]float64, vol)}
	faces := make([]float64, faceLen)

	var ops sem.OpCount
	count := func(o sem.OpCount) { ops = ops.Plus(o) }

	// One dry pass per probe collects the exact operation count.
	deriv := func() {
		for c := range src {
			for dir := sem.DirR; dir <= sem.DirT; dir++ {
				count(sem.DerivPool(pl, dir, sem.Optimized, ref, src[c], d[0], nel))
			}
		}
	}
	ops = sem.OpCount{}
	deriv()
	p.measure(pDeriv, ops.Flops(), int64(15*2*vol*f8), deriv)

	grad3 := func() {
		for q := 0; q < 4; q++ {
			count(sem.Grad3FusedPool(pl, ref, src[q], d[0], d[1], d[2], nel))
		}
	}
	ops = sem.OpCount{}
	grad3()
	p.measure(pGrad3, ops.Flops(), int64(4*4*vol*f8), grad3)

	bufs := ref.NewDealiasBufs(pl.Workers())
	work := append([]float64(nil), src[0]...)
	dealias := func() {
		for c := 0; c < solver.NumFields; c++ {
			count(ref.DealiasRoundTripPool(pl, work, nel, bufs))
		}
	}
	ops = sem.OpCount{}
	dealias()
	p.measure(pDealias, ops.Flops(), int64(5*2*vol*f8), dealias)

	extract := func() {
		for c := range src {
			count(sem.Full2FacePool(pl, n, src[c], nel, faces))
		}
	}
	ops = sem.OpCount{}
	extract()
	p.measure(pFaceOut, ops.Flops(), int64(5*2*faceLen*f8), extract)

	add := func() {
		for c := 0; c < solver.NumFields; c++ {
			count(sem.Face2FullAddPool(pl, n, faces, nel, d[0]))
		}
	}
	ops = sem.OpCount{}
	add()
	p.measure(pFaceIn, ops.Flops(), int64(5*3*faceLen*f8), add)
}

func (p *prober) gsProbes(s *solver.Solver) {
	g := s.GS()
	faces := make([]float64, sem.FaceSliceLen(s.Cfg.N, s.Nel()))
	p.measure(pGSOp, 0, 0, func() {
		// The refill keeps the sums finite and stands in for the
		// trace copy the solver makes before each of its gs_op calls.
		for i := range faces {
			faces[i] = 1
		}
		g.Op(faces, comm.OpSum)
	})
	ids := s.Local.DGFaceIDs()
	p.measure(pGSSetup, 0, 0, func() { gs.Setup(p.r, ids) })
}

const probeTag = 0x6270 // "bp"

func (p *prober) commProbes(msgFloats int) {
	r := p.r
	one := []float64{1}
	p.measure(pAllreduce, 0, 0, func() { r.Allreduce(comm.OpMax, one) })

	// np == 2: rank 0 times the round trip, rank 1 echoes.
	buf := make([]float64, msgFloats)
	var req comm.Request
	peer := 1 - r.ID()
	p.measure(pP2P, 0, int64(2*8*msgFloats), func() {
		if r.ID() == 0 {
			r.IsendMsg(peer, probeTag, buf, nil)
		}
		r.IrecvInto(&req, peer, probeTag)
		req.Wait()
		req.Free()
		if r.ID() == 1 {
			r.IsendMsg(peer, probeTag, buf, nil)
		}
	})
}
