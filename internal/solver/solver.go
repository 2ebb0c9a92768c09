package solver

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/gs"
	"repro/internal/hw"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/sem"
)

// Solver is one rank's CMT-bone instance.
type Solver struct {
	Cfg   Config
	Rank  *comm.Rank
	Local *mesh.Local
	Ref   *sem.Ref1D
	// Rec is this rank's region recorder: every instrumented region of the
	// solver, and of the subsystems layered on it (load balancer, fault
	// runner, particle cloud), opens on it. It always aggregates the
	// Figure 4 profile and retains spans only when Config.Obs is set.
	Rec *obs.RankTracer

	gsh *gs.GS // face-point gather-scatter

	// U holds the conserved variables, one slice of nel*N^3 per field.
	U [NumFields][]float64

	// Source holds optional volumetric source terms (the conservation
	// law's right-hand side R, which carries the multiphase coupling in
	// CMT-nek). Nil slices mean zero sources — the current CMT-bone
	// state per the paper. Call EnableSource to allocate; external
	// couplers (e.g. internal/particles) deposit into it.
	Source [NumFields][]float64

	// Cost is each local element's measured cost estimate (modeled
	// seconds per step, the load balancer's EWMA) and CostPrimed whether
	// a sample has been folded into it yet. Like U it is element state:
	// Remap, checkpoints and crash recovery carry it in the element
	// record.
	Cost       []float64
	CostPrimed bool

	// filter operator (nil when the spectral filter is disabled)
	filterMat []float64

	// u1 is the RK stage register (allocated once). The residual lives in
	// slot scratch.
	u1 [NumFields][]float64
	// The face pairing (pairFaces). link[e*6+f] is where face f of
	// element e finds its other side: the face slot e'*6+f' of its
	// partner on this rank (>= 0), ^k for the k-th rank-boundary face
	// remote[k], or domainBoundary (no neighbor: never exchanged,
	// corrected by Cfg.BC instead).
	link   []int32
	remote []int32
	// The face values that outlive the face pass; the lift gathers every
	// other trace itself. Only the rank-boundary faces go through the
	// gather-scatter: sumU/sumF hold their traces of the state and of the
	// normal flux (face k at k*N^2), and the exchange sums them in place.
	// keep holds one face per in-rank pair whose two lifts do not both see
	// the state before its update (planTraces): face slot a at
	// keepAt[a]*N^2, the first keepPass of them traces of the state that
	// the face pass stores, the rest corrections that a's partner's lift
	// leaves for a's (viscous: after reading a's flux trace there). A
	// viscous face pass keeps the first keepPass' flux traces at keepF+k.
	sumU, sumF [NumFields][]float64
	keep       [NumFields][]float64
	keepAt     []int32
	keepPass   int
	keepF      int

	// Intra-rank worker pool for the element-indexed kernels (Workers
	// in Config). The pool parallelizes wall time only: modeled time is
	// charged analytically on the rank goroutine, so results and
	// virtual-time traces are identical at any worker count.
	pool *pool.Pool
	// The element-resident pipelines (faceRuns, postRuns): per-slot
	// scratch, the state the right-hand side reads and its derivative
	// kernels, the runs in progress, and the pool bodies over them.
	volSlots []volSlot
	in       *[NumFields][]float64
	kern     sem.ElemDeriv
	faceElo  int
	post     postJob
	faceBody func(slot, lo, hi int)
	postBody func(slot, lo, hi int)
	wsBody   func(slot, lo, hi int)
	wsPart   []float64  // per-slot wave-speed partial maxima
	wsMax    [1]float64 // the rank's maximum, reduced in place by the allreduce

	// The charge schedule and the right-hand side's ledger (charge.go).
	sched      schedule
	ledger     []call // room for 64 calls an element run and 64 more (New)
	ahead      int    // the ledger's first calls, charged before their passes
	owed       int    // where the volume calls the next postRuns times begin
	pass, left pass

	// Geometry: uniform unit-cube elements, so d(ref)/d(phys) = 2.
	rx float64
	// liftScale[d] = 2/(h_d * w_0): the diagonal lift factor at face
	// points normal to direction d.
	liftScale [3]float64

	// Per-element work weights (Config.HotElems): elemW[e] is local
	// element e's cost multiplier, wSum their sum, workScale the factor
	// (wSum/Nel) every volume-proportional compute charge is scaled by.
	// All 1 without hot elements, so modeled times are unchanged.
	elemW     []float64
	wSum      float64
	workScale float64

	// kernelSec accumulates the virtual seconds this rank's clock
	// advanced inside chargeCompute — the measured per-rank kernel time
	// (including hot-element work weights) the load balancer's cost
	// model consumes.
	kernelSec float64

	// Overlap state (Config.Overlap): the interior and boundary elements
	// (those with a rank-boundary face) as maximal contiguous runs, plus
	// the reusable split-phase exchange handles for the state and flux
	// traces. Rebuilt with the gs handle (construction, Remap,
	// Shrink-rebuild).
	intRuns      [][2]int
	bndRuns      [][2]int
	pendU, pendF *gs.Pending
	prevHidden   float64 // overlap-hidden seconds at the last telemetry flush

	// ow is the current element ownership map (lazily the uniform split;
	// replaced by Remap).
	ow *mesh.Ownership

	// Accumulated structural op counts (feeds the hw model).
	Ops sem.OpCount

	// Lambda is the current global maximum wave speed (set by Lambda()).
	lambda float64

	// Step telemetry.
	prevSplit comm.OpTotals // MPI totals at the end of the last step
	prevVT    float64       // virtual clock at the end of the last step
	simTime   float64       // accumulated simulated time
}

// New builds a solver on rank r. Collective: every rank must call it with
// an identical configuration.
func New(r *comm.Rank, cfg Config) (*Solver, error) {
	cfg.normalize()
	if err := cfg.Validate(r.Size()); err != nil {
		return nil, err
	}
	box, err := cfg.Mesh()
	if err != nil {
		return nil, err
	}
	local := box.Partition(r.ID())
	if cfg.Ownership != nil {
		if *cfg.Ownership.Box() != *box {
			return nil, fmt.Errorf("solver: ownership map built over a different box")
		}
		local = cfg.Ownership.Partition(r.ID())
	}
	ref := cfg.Ref
	if ref != nil && ref.N != cfg.N {
		// A cache entry recorded for a different order is useless here;
		// rebuilding is always correct.
		ref = nil
	}
	if ref == nil {
		if cfg.Dealias && cfg.GaussDealias {
			ref = sem.NewRef1DGauss(cfg.N)
		} else {
			ref = sem.NewRef1D(cfg.N)
		}
	}

	s := &Solver{
		Cfg:   cfg,
		Rank:  r,
		Local: local,
		Ref:   ref,
		Rec:   cfg.Obs.Rank(r.WorldID(), r.Clock()),
		rx:    2, // reference element [-1,1] onto unit cube
		ow:    cfg.Ownership,
	}
	// Set-up order: the face pairing, then the gather-scatter handle
	// (discovery or the cached topology, and the tuner), and only then
	// the whole-rank arrays, so that no set-up transient shares the heap
	// with them. Allocation never touches the clock.
	s.pairFaces()
	if cfg.GSTopo != nil {
		// Cache hit: rebuild the gather-scatter handle from the recorded
		// discovery result — no setup collectives at all. Validate
		// guaranteed the table covers every rank, so the skip is
		// symmetric.
		gsh, err := gs.SetupFromTopology(r, cfg.GSTopo[r.ID()])
		if err != nil {
			return nil, fmt.Errorf("solver: cached gs topology: %w", err)
		}
		if n := len(s.remote) * cfg.N * cfg.N; cfg.GSTopo[r.ID()].N != n || gsh.SharedSlots() != n {
			return nil, fmt.Errorf("solver: cached gs topology has length %d and %d ids, the rank-boundary faces %d points",
				cfg.GSTopo[r.ID()].N, gsh.SharedSlots(), n)
		}
		s.gsh = gsh
		s.gsh.SetSpanner(s.Rec)
	} else {
		s.setupGS()
	}
	if cfg.AutoTune {
		reg := s.Rec.Region("gs_autotune", obs.CatComm)
		gs.TuneModeled(s.gsh, cfg.TuneTrials)
		reg.End()
	} else {
		s.gsh.SetMethod(cfg.GSMethod)
	}

	s.allocState(false)
	s.pool = pool.New(cfg.Workers)
	s.pool.Observe(cfg.Metrics)
	s.wsPart = make([]float64, s.pool.Workers())
	// A slot's scratch: the element's residual (5·N³), viscous its own
	// flux traces, then the volume pass's fluxes, derivatives, velocity
	// and pressure (+ elemGradients' when viscous), which also holds the
	// largest other need: the lift's faces, the filter's or dealiasing's
	// scratch, or the viscous face pass's (faceViscousFlux).
	n3 := cfg.N * cfg.N * cfg.N
	slotLen, own := max(10*n3, liftScratchLen(cfg.N)), 0
	if cfg.Mu > 0 {
		slotLen, own = slotLen+(1+3*numGradQ)*n3, ownTracesLen(cfg.N)
	}
	if cfg.Dealias {
		slotLen = max(slotLen, ref.NF*ref.NF*ref.NF+ref.DealiasScratchLen())
	}
	slotLen = NumFields*n3 + own + max(slotLen, sem.FilterScratchLen(cfg.N))
	s.volSlots = make([]volSlot, s.pool.Workers())
	for i := range s.volSlots {
		s.volSlots[i].buf = make([]float64, slotLen)
	}
	s.faceBody, s.postBody, s.wsBody = s.faceElems, s.postElems, s.waveSpeedPoints
	if cfg.FilterCutoff > 0 {
		s.filterMat = sem.FilterMatrix(ref.X, cfg.FilterCutoff, 1.0)
	}
	for d := 0; d < 3; d++ {
		s.liftScale[d] = s.rx / ref.W[0]
	}
	s.sched = newSchedule(cfg.N, ref.NF, cfg.Mu > 0, cfg.Variant)
	s.allocScratch()
	s.ledger = make([]call, 0, 64*(2+len(s.intRuns)+len(s.bndRuns)))
	return s, nil
}

// allocState (re)allocates the element state an element record carries —
// U, Cost, and Source when sources is set — zeroed, for the current
// local element set.
func (s *Solver) allocState(sources bool) {
	vol := s.Local.Nel * s.Cfg.N * s.Cfg.N * s.Cfg.N
	for c := 0; c < NumFields; c++ {
		s.U[c] = make([]float64, vol)
		s.Source[c] = nil
		if sources {
			s.Source[c] = make([]float64, vol)
		}
	}
	s.Cost = make([]float64, s.Local.Nel)
}

// allocScratch (re)allocates every local-size-dependent working array —
// everything except the element state allocState owns, which Remap
// migrates rather than rebuilds — rebuilds the overlap split and the
// trace plan over them, and refreshes the per-element work weights.
// Called at construction and after every element migration, after
// pairFaces, the gather-scatter set-up and the worker pool.
func (s *Solver) allocScratch() {
	local, cfg := s.Local, &s.Cfg
	n2 := cfg.N * cfg.N
	vol, sumLen := local.Nel*n2*cfg.N, len(s.remote)*n2
	for c := 0; c < NumFields; c++ {
		s.u1[c] = make([]float64, vol)
		s.sumU[c] = make([]float64, sumLen)
		s.sumF[c] = make([]float64, sumLen)
	}
	s.rebuildOverlap()
	s.planTraces()
	s.initWeights()
}

// domainBoundary is the link of a face with no neighbor.
const domainBoundary = math.MinInt32

// pairFaces rebuilds the face pairing from the mesh: the partner of face
// f of element e is face f^1 of its neighbor element. The partner's
// points match one to one, because DGFaceIDs numbers both sides of a
// face fid*N^2 + idx.
func (s *Solver) pairFaces() {
	local := s.Local
	s.link = make([]int32, local.Nel*sem.NFaces)
	s.remote = s.remote[:0]
	for e := 0; e < local.Nel; e++ {
		for f := 0; f < sem.NFaces; f++ {
			slot := e*sem.NFaces + f
			nb, ok := local.FaceNeighbor(e, f)
			switch {
			case !ok:
				s.link[slot] = domainBoundary
			case nb.Rank == local.Rank:
				s.link[slot] = int32(nb.Elem*sem.NFaces + (f ^ 1))
			default:
				s.link[slot] = ^int32(len(s.remote))
				s.remote = append(s.remote, int32(slot))
			}
		}
	}
}

// planTraces decides what the in-rank face pairs keep (keepAt) and sizes
// keep for it. The post-exchange pass updates each element right after
// its lift, and RK stage 2 updates the state it reads in place, so a lift
// may gather its partner's trace from the state only while the partner
// is not updated yet. When one element of a pair lifts before the other
// — it sits earlier in the same pool chunk of the same run, or in an
// earlier run of the pass (postOrder) — its lift gathers both traces
// while neither element is updated and leaves the later one its finished
// correction: one face kept, the later face's. The chunks of one run may
// run concurrently, so a pair split between two of them keeps both
// traces, stored by the face pass before the exchange. A pair within one
// element keeps nothing. A viscous lift reads its partner's flux trace
// from keep too, so a viscous solver keeps it for the first keepPass.
func (s *Solver) planTraces() {
	// Each element's run, chunk and place in the post-exchange pass.
	type place struct{ run, chunk, at int }
	where := make([]place, s.Local.Nel)
	at := 0
	for r, run := range s.postOrder() {
		n := run[1] - run[0]
		k := s.pool.Slots(n)
		for c := 0; c < k; c++ {
			for i := c * n / k; i < (c+1)*n/k; i++ {
				where[run[0]+i] = place{r, c, at}
				at++
			}
		}
	}
	s.keepAt = make([]int32, len(s.link))
	var later []int // faces whose partner lifts first, numbered after the traces
	s.keepPass = 0
	for a, l := range s.link {
		s.keepAt[a] = -1
		if l < 0 {
			continue
		}
		switch me, nb := where[a/sem.NFaces], where[int(l)/sem.NFaces]; {
		case nb == me:
		case nb.run == me.run && nb.chunk != me.chunk:
			s.keepAt[a] = int32(s.keepPass)
			s.keepPass++
		case nb.at < me.at:
			later = append(later, a)
		}
	}
	for i, a := range later {
		s.keepAt[a] = int32(s.keepPass + i)
	}
	s.keepF = s.keepPass + len(later)
	faces := s.keepF
	if s.Cfg.Mu > 0 {
		faces += s.keepPass
	}
	for c := range s.keep {
		s.keep[c] = make([]float64, faces*s.Cfg.N*s.Cfg.N)
	}
}

// initWeights rebuilds the per-element work weights from Config.HotElems
// for the current local element set.
func (s *Solver) initWeights() {
	nel := s.Local.Nel
	s.elemW = make([]float64, nel)
	s.wSum = 0
	for e := 0; e < nel; e++ {
		w := 1.0
		if len(s.Cfg.HotElems) > 0 {
			if m, ok := s.Cfg.HotElems[s.Local.GID(e)]; ok {
				w = m
			}
		}
		s.elemW[e] = w
		s.wSum += w
	}
	if nel > 0 {
		s.workScale = s.wSum / float64(nel)
	} else {
		s.workScale = 1
	}
}

// setupGS (re)builds the gather-scatter handle over the current local
// element set (gs_setup, with its generalized all-to-all discovery
// phase) and moves it onto the compact exchange buffers sumU/sumF: the
// point p of face slot e*6+f with link ^k is sumU[c][k*N^2+p].
// Collective.
func (s *Solver) setupGS() {
	reg := s.Rec.Region("gs_setup", obs.CatComm)
	s.gsh = gs.Setup(s.Rank, s.exchangeIDs())
	reg.End()
	n2 := int32(s.Cfg.N * s.Cfg.N)
	err := s.gsh.Compact(len(s.remote)*int(n2), func(i int32) int32 {
		if l := s.link[i/n2]; l < 0 && l != domainBoundary {
			return ^l*n2 + i%n2
		}
		return -1
	})
	if err != nil {
		panic(fmt.Sprintf("solver: the gather-scatter shares a point off the rank-boundary faces: %v", err))
	}
	s.gsh.SetSpanner(s.Rec)
}

// exchangeIDs is the gather-scatter's id vector: DGFaceIDs with the
// later side (in face order) of every in-rank pair masked out, so those
// ids are held once here and never combined — the lift adds the two
// traces itself — and the handle holds the rank-boundary faces only.
// Every id is still held, so discovery sends what it would for the whole
// face id vector.
func (s *Solver) exchangeIDs() []int64 {
	ids := s.Local.DGFaceIDs()
	n2 := s.Cfg.N * s.Cfg.N
	for slot, l := range s.link {
		if l >= 0 && int(l) < slot {
			for i := slot * n2; i < (slot+1)*n2; i++ {
				ids[i] = -1
			}
		}
	}
	return ids
}

// GS exposes the face gather-scatter handle (for reporting).
func (s *Solver) GS() *gs.GS { return s.gsh }

// Pool exposes the intra-rank worker pool (for occupancy reporting).
func (s *Solver) Pool() *pool.Pool { return s.pool }

// Close stops the worker pool's helper goroutines. The solver remains
// usable afterwards (kernels fall back to running on the caller), but
// steady-state use should treat Close as the end of the solver's life.
func (s *Solver) Close() { s.pool.Close() }

// EnableSource allocates the source-term fields (zeroed) and returns
// them; callers deposit coupling terms (e.g. particle drag reactions)
// before each Step.
func (s *Solver) EnableSource() *[NumFields][]float64 {
	if s.Source[0] == nil {
		vol := len(s.U[0])
		for c := 0; c < NumFields; c++ {
			s.Source[c] = make([]float64, vol)
		}
	}
	return &s.Source
}

// ZeroSource clears the source-term fields (no-op when disabled).
func (s *Solver) ZeroSource() {
	for c := 0; c < NumFields; c++ {
		for i := range s.Source[c] {
			s.Source[c][i] = 0
		}
	}
}

// Nel returns the local element count.
func (s *Solver) Nel() int { return s.Local.Nel }

// PointCoords returns the physical coordinates of point (i,j,k) of local
// element e; elements are unit cubes tiling [0, ElemGrid) per direction.
func (s *Solver) PointCoords(e, i, j, k int) (x, y, z float64) {
	g := s.Local.GlobalElemCoords(e)
	x = float64(g[0]) + (s.Ref.X[i]+1)/2
	y = float64(g[1]) + (s.Ref.X[j]+1)/2
	z = float64(g[2]) + (s.Ref.X[k]+1)/2
	return
}

// SetInitial fills the conserved variables from a pointwise function of
// physical coordinates. Each element's coordinates along each axis are
// PointCoords' expressions, formed once per element.
func (s *Solver) SetInitial(f func(x, y, z float64) [NumFields]float64) {
	n := s.Cfg.N
	var at [3][]float64
	for d := range at {
		at[d] = make([]float64, n)
	}
	idx := 0
	for e := 0; e < s.Local.Nel; e++ {
		g := s.Local.GlobalElemCoords(e)
		for d := range at {
			for i, x := range s.Ref.X[:n] {
				at[d][i] = float64(g[d]) + (x+1)/2
			}
		}
		for _, z := range at[2] {
			for _, y := range at[1] {
				for _, x := range at[0] {
					u := f(x, y, z)
					for c := 0; c < NumFields; c++ {
						s.U[c][idx] = u[c]
					}
					idx++
				}
			}
		}
	}
}

// UniformState returns the conserved variables of a uniform flow with
// density rho, velocity (u,v,w) and pressure p.
func UniformState(rho, u, v, w, p float64) [NumFields]float64 {
	return [NumFields]float64{
		rho, rho * u, rho * v, rho * w,
		p/(Gamma-1) + 0.5*rho*(u*u+v*v+w*w),
	}
}

// GaussianPulse returns an initial condition: a density/pressure bump of
// amplitude amp and width sigma centered at (cx,cy,cz) on a quiescent
// background — the acoustic test problem of the examples.
func GaussianPulse(cx, cy, cz, amp, sigma float64) func(x, y, z float64) [NumFields]float64 {
	return func(x, y, z float64) [NumFields]float64 {
		r2 := (x-cx)*(x-cx) + (y-cy)*(y-cy) + (z-cz)*(z-cz)
		b := amp * math.Exp(-r2/(2*sigma*sigma))
		rho := 1 + b
		p := 1/Gamma + b
		return UniformState(rho, 0, 0, 0, p)
	}
}

// chargeCompute advances the rank's virtual clock by the modeled cost of
// ops under traits on the configured machine (behavioral emulation of the
// compute phases between messages). The charge is scaled by the
// per-element work weights (Config.HotElems): every charged kernel is
// volume-proportional, so a rank's compute cost is the mean weight of
// its elements times the structural cost. The advance is also
// accumulated into kernelSec, the measured kernel time the load
// balancer's cost model reads.
func (s *Solver) chargeCompute(ops sem.OpCount, tr hw.Traits) {
	s.Ops = s.Ops.Plus(ops)
	t := hw.Time(s.Cfg.Machine, hw.Ops{Mul: ops.Mul, Add: ops.Add, Load: ops.Load, Store: ops.Store}, tr)
	t *= s.workScale
	clock := s.Rank.Clock()
	before := clock.Now()
	clock.Advance(t)
	s.kernelSec += clock.Now() - before
}

// KernelSeconds returns the cumulative modeled compute seconds charged on
// this rank (virtual-clock advance of every kernel, including hot-element
// work weights) — the measurement feed of the load balancer.
func (s *Solver) KernelSeconds() float64 { return s.kernelSec }

// ElemCostShares fills dst (grown if needed) with each local element's
// share of this rank's compute charge: weight_e / sum(weights), summing
// to 1. Multiplying by a measured kernel-seconds delta attributes rank
// time to elements.
func (s *Solver) ElemCostShares(dst []float64) []float64 {
	nel := s.Local.Nel
	if cap(dst) < nel {
		dst = make([]float64, nel)
	}
	dst = dst[:nel]
	for e := 0; e < nel; e++ {
		dst[e] = s.elemW[e] / s.wSum
	}
	return dst
}

// Ownership returns the current element->rank map (building the uniform
// one on first use when the run started from the static box split).
func (s *Solver) Ownership() *mesh.Ownership {
	if s.ow == nil {
		s.ow = s.Local.Box.UniformOwnership()
	}
	return s.ow
}

// TotalMass returns the global integral of the density field — conserved
// exactly by the scheme on periodic domains. Collective (uses the vector
// reduction path).
func (s *Solver) TotalMass() float64 {
	return s.Integrate(IRho)
}

// Integrate returns the global integral of one conserved field, using LGL
// quadrature and an allreduce vector reduction (the paper's "vector
// reductions" communication class).
func (s *Solver) Integrate(field int) float64 {
	if field < 0 || field >= NumFields {
		panic(fmt.Sprintf("solver: field %d out of range", field))
	}
	n := s.Cfg.N
	n3 := n * n * n
	jac := 1.0 / (s.rx * s.rx * s.rx) // dV = (h/2)^3 dr ds dt
	local := 0.0
	for e := 0; e < s.Local.Nel; e++ {
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				wjk := s.Ref.W[j] * s.Ref.W[k]
				row := e*n3 + n*j + n*n*k
				for i := 0; i < n; i++ {
					local += s.Ref.W[i] * wjk * s.U[field][row+i]
				}
			}
		}
	}
	s.Rank.SetSite("glsum")
	out := s.Rank.Allreduce(comm.OpSum, []float64{local * jac})
	s.Rank.SetSite("")
	return out[0]
}
