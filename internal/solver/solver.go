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

	// filter operators (nil when the spectral filter is disabled)
	filterMat     []float64
	filterScratch []float64

	// Scratch (allocated once).
	rhs    [NumFields][]float64
	u1, u2 [NumFields][]float64 // RK stages
	velP   [3][]float64         // pointwise velocity (primitive pass)
	prP    []float64            // pointwise pressure (primitive pass)
	// viscous-path storage (allocated when Mu > 0)
	gradQ [numGradQ][]float64    // quantities to differentiate (vx,vy,vz,T)
	gradD [numGradQ][3][]float64 // their physical-space gradients
	faceU [NumFields][]float64   // face traces of U
	faceF [NumFields][]float64   // face traces of the normal flux
	exU   [NumFields][]float64   // exchanged (in+out summed) state traces
	exF   [NumFields][]float64   // exchanged flux traces
	// bndFace[e*6+f] marks the faces with no neighbor (non-periodic
	// domain boundary): never exchanged, corrected by Cfg.BC instead.
	bndFace []bool

	// Intra-rank worker pool for the element-indexed kernels (Workers
	// in Config). The pool parallelizes wall time only: modeled time is
	// charged analytically on the rank goroutine, so results and
	// virtual-time traces are identical at any worker count.
	pool    *pool.Pool
	deaBufs *sem.DealiasBufs // per-worker dealiasing buffers
	// The element-resident pipelines (volumeRuns, faceRuns, the lift in
	// rhsTail): per-slot scratch, the runs in progress, and the pool
	// bodies over them.
	volSlots []volSlot
	vol      volJob
	face     faceJob
	volBody  func(slot, lo, hi int)
	faceBody func(slot, lo, hi int)
	liftBody func(slot, lo, hi int)
	wsPart   []float64 // per-slot wave-speed partial maxima

	// Cfg.Variant resolved once at construction to the hw traits charged
	// per derivative direction.
	derivTraits [3]hw.Traits

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
	// (including straggler compute factors) the load balancer's cost
	// model consumes.
	kernelSec float64

	// Overlap state (Config.Overlap): element classification from the gs
	// topology — bndElem[e] is true when element e holds any remotely
	// shared face point — as maximal contiguous runs, plus the reusable
	// split-phase exchange handles for the state and flux traces.
	// Rebuilt with the gs handle (construction, Remap, Shrink-rebuild).
	bndElem      []bool
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
	vol := local.Nel * cfg.N * cfg.N * cfg.N
	for c := 0; c < NumFields; c++ {
		s.U[c] = make([]float64, vol)
	}
	s.pool = pool.New(cfg.Workers)
	s.pool.Observe(cfg.Metrics)
	s.wsPart = make([]float64, s.pool.Workers())
	s.volSlots = make([]volSlot, s.pool.Workers())
	for i := range s.volSlots {
		s.volSlots[i].buf = make([]float64, 6*cfg.N*cfg.N*cfg.N)
	}
	s.volBody, s.faceBody, s.liftBody = s.volumeElems, s.faceElems, s.liftElems
	if cfg.Dealias {
		s.deaBufs = ref.NewDealiasBufs(s.pool.Workers())
	}
	if cfg.FilterCutoff > 0 {
		s.filterMat = sem.FilterMatrix(ref.X, cfg.FilterCutoff, 1.0)
		s.filterScratch = make([]float64, sem.FilterScratchLen(cfg.N))
	}
	for d := 0; d < 3; d++ {
		s.liftScale[d] = s.rx / ref.W[0]
		s.derivTraits[d] = hw.DerivTraits(d, cfg.Variant == sem.Optimized)
	}
	s.allocScratch()

	if cfg.GSTopo != nil {
		// Cache hit: rebuild the gather-scatter handle from the recorded
		// discovery result — no setup collectives at all. Validate
		// guaranteed the table covers every rank, so the skip is
		// symmetric.
		gsh, err := gs.SetupFromTopology(r, cfg.GSTopo[r.ID()])
		if err != nil {
			s.pool.Close()
			return nil, fmt.Errorf("solver: cached gs topology: %w", err)
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
	s.rebuildOverlap()
	return s, nil
}

// allocScratch (re)allocates every local-size-dependent working array —
// everything except the conserved state U and the source fields, which
// Remap migrates rather than rebuilds — and refreshes the boundary-face
// flags and per-element work weights. Called at construction and after every
// element migration.
func (s *Solver) allocScratch() {
	local, cfg := s.Local, &s.Cfg
	n3 := cfg.N * cfg.N * cfg.N
	vol := local.Nel * n3
	for c := 0; c < NumFields; c++ {
		s.rhs[c] = make([]float64, vol)
		s.u1[c] = make([]float64, vol)
		s.u2[c] = make([]float64, vol)
	}
	for d := 0; d < 3; d++ {
		s.velP[d] = make([]float64, vol)
	}
	s.prP = make([]float64, vol)
	faceLen := sem.FaceSliceLen(cfg.N, local.Nel)
	for c := 0; c < NumFields; c++ {
		s.faceU[c] = make([]float64, faceLen)
		s.faceF[c] = make([]float64, faceLen)
		s.exU[c] = make([]float64, faceLen)
		s.exF[c] = make([]float64, faceLen)
	}
	if cfg.Mu > 0 {
		for q := 0; q < numGradQ; q++ {
			s.gradQ[q] = make([]float64, vol)
			for d := 0; d < 3; d++ {
				s.gradD[q][d] = make([]float64, vol)
			}
		}
	}

	s.bndFace = make([]bool, local.Nel*sem.NFaces)
	for e := 0; e < local.Nel; e++ {
		for f := 0; f < sem.NFaces; f++ {
			_, ok := local.FaceNeighbor(e, f)
			s.bndFace[e*sem.NFaces+f] = !ok
		}
	}
	s.initWeights()
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
// phase). Collective.
func (s *Solver) setupGS() {
	reg := s.Rec.Region("gs_setup", obs.CatComm)
	s.gsh = gs.Setup(s.Rank, s.Local.DGFaceIDs())
	reg.End()
	s.gsh.SetSpanner(s.Rec)
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
// physical coordinates.
func (s *Solver) SetInitial(f func(x, y, z float64) [NumFields]float64) {
	n := s.Cfg.N
	n3 := n * n * n
	for e := 0; e < s.Local.Nel; e++ {
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					x, y, z := s.PointCoords(e, i, j, k)
					u := f(x, y, z)
					idx := e*n3 + i + n*j + n*n*k
					for c := 0; c < NumFields; c++ {
						s.U[c][idx] = u[c]
					}
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
// its elements times the structural cost. The advance (including any
// straggler compute factor) is also accumulated into kernelSec, the
// measured kernel time the load balancer's cost model reads.
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
// this rank (virtual-clock advance of every kernel, including straggler
// compute factors) — the measurement feed of the load balancer.
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

// pointwiseTraits models simple streaming arithmetic (flux evaluation,
// vector updates).
var pointwiseTraits = hw.Traits{VecFrac: 0.6, OverheadPerFlop: 0.3, MissRate: 0.01}

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
