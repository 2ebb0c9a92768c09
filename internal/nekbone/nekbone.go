// Package nekbone reimplements the Nekbone mini-app, the reference
// baseline the paper compares CMT-bone against in Figure 7. Nekbone
// distills Nek5000's incompressible-flow solve: a conjugate-gradient
// iteration on a spectral-element Helmholtz system, whose communication
// is the direct-stiffness summation (dssum) — a gather-scatter over the
// continuous GLL-point numbering — plus the vector reductions (glsc) of
// the CG dot products.
//
// Both mini-apps deliberately share the gather-scatter library
// (internal/gs), just as the real codes share Nek5000's gs library; the
// difference is the exchange pattern it is configured with: CMT-bone's
// face ids touch at most 6 neighbors, Nekbone's continuous ids couple
// faces, edges, and corners — up to 26 neighbors.
package nekbone

import (
	"math"

	"repro/internal/comm"
	"repro/internal/gs"
	"repro/internal/hw"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/sem"
)

// Config describes a Nekbone run.
type Config struct {
	// N is the number of GLL points per direction per element.
	N int
	// ProcGrid and ElemGrid follow the same rules as the CMT-bone
	// solver configuration.
	ProcGrid [3]int
	ElemGrid [3]int
	Periodic [3]bool
	// GSMethod selects the dssum exchange algorithm (ignored when
	// AutoTune is set).
	GSMethod gs.Method
	// AutoTune runs the startup gather-scatter tuner.
	AutoTune bool
	// TuneTrials is the trial count per method for the tuner.
	TuneTrials int
	// Iters is the CG iteration count for Run.
	Iters int
	// MassShift is the Helmholtz mass-term weight (keeps the operator
	// positive definite; Nekbone's h2 term). Default 0.1.
	MassShift float64
	// Jacobi enables diagonal (Jacobi) preconditioning of the CG
	// iteration.
	Jacobi bool
	// Machine is the processor model for virtual-clock accounting.
	Machine hw.Machine
}

// DefaultConfig mirrors solver.DefaultConfig for Nekbone.
func DefaultConfig(p, n, elemsPerDir int) Config {
	pg := comm.FactorGrid(p)
	return Config{
		N:        n,
		ProcGrid: pg,
		ElemGrid: [3]int{pg[0] * elemsPerDir, pg[1] * elemsPerDir, pg[2] * elemsPerDir},
		GSMethod: gs.Pairwise,
		Iters:    50,
	}
}

// Solver is one rank's Nekbone instance.
type Solver struct {
	Cfg   Config
	Rank  *comm.Rank
	Local *mesh.Local
	Ref   *sem.Ref1D
	Rec   *obs.RankTracer // this rank's region recorder (profile only: no span sink)

	gsh     *gs.GS
	invMult []float64 // 1/multiplicity per point (for assembled dot products)
	w3      []float64 // tensor quadrature weights per element point
	invDiag []float64 // 1/diag(A), assembled (Jacobi preconditioner)

	// scratch
	dr, ds, dt []float64
	tmp        []float64

	Ops sem.OpCount
}

// New builds a Nekbone solver on rank r. Collective.
func New(r *comm.Rank, cfg Config) (*Solver, error) {
	if cfg.MassShift == 0 {
		cfg.MassShift = 0.1
	}
	if cfg.TuneTrials == 0 {
		cfg.TuneTrials = 3
	}
	if cfg.Machine.Name == "" {
		cfg.Machine = hw.Generic
	}
	box, err := mesh.NewBox(cfg.ProcGrid, cfg.ElemGrid, cfg.N, cfg.Periodic)
	if err != nil {
		return nil, err
	}
	local := box.Partition(r.ID())
	ref := sem.NewRef1D(cfg.N)
	s := &Solver{Cfg: cfg, Rank: r, Local: local, Ref: ref,
		Rec: (*obs.Tracer)(nil).Rank(r.WorldID(), r.Clock())}

	n := cfg.N
	vol := local.Nel * n * n * n
	s.dr = make([]float64, vol)
	s.ds = make([]float64, vol)
	s.dt = make([]float64, vol)
	s.tmp = make([]float64, vol)

	// Tensor-product quadrature weights (unit-cube elements).
	s.w3 = make([]float64, vol)
	for e := 0; e < local.Nel; e++ {
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					s.w3[e*n*n*n+i+n*j+n*n*k] = ref.W[i] * ref.W[j] * ref.W[k]
				}
			}
		}
	}

	reg := s.Rec.Region("gs_setup", obs.CatComm)
	s.gsh = gs.Setup(r, local.ContinuousIDs())
	reg.End()
	if cfg.AutoTune {
		reg := s.Rec.Region("gs_autotune", obs.CatComm)
		gs.TuneModeled(s.gsh, cfg.TuneTrials)
		reg.End()
	} else {
		s.gsh.SetMethod(cfg.GSMethod)
	}

	// Multiplicity: dssum of ones counts how many elements share each
	// point; its inverse weights the assembled inner products.
	s.invMult = make([]float64, vol)
	for i := range s.invMult {
		s.invMult[i] = 1
	}
	s.DSSum(s.invMult)
	for i := range s.invMult {
		s.invMult[i] = 1 / s.invMult[i]
	}

	if cfg.Jacobi {
		s.buildJacobi()
	}
	return s, nil
}

// buildJacobi assembles the inverse diagonal of A for the Jacobi
// preconditioner. For the separable stiffness operator the local
// diagonal at point (i,j,k) is
//
//	sum_l D[l,i]^2 G(l,j,k) + D[l,j]^2 G(i,l,k) + D[l,k]^2 G(i,j,l)
//
// with G the diagonal geometric factor, plus the mass shift; the global
// diagonal is its dssum.
func (s *Solver) buildJacobi() {
	n := s.Cfg.N
	n3 := n * n * n
	nel := s.Local.Nel
	rx := 2.0
	geo := rx * rx / (rx * rx * rx)
	mass := s.Cfg.MassShift / (rx * rx * rx)

	d := s.Ref.D
	diag := make([]float64, nel*n3)
	g := func(e, i, j, k int) float64 {
		return s.w3[e*n3+i+n*j+n*n*k] * geo
	}
	for e := 0; e < nel; e++ {
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					acc := 0.0
					for l := 0; l < n; l++ {
						dli := d[l*n+i]
						dlj := d[l*n+j]
						dlk := d[l*n+k]
						acc += dli*dli*g(e, l, j, k) +
							dlj*dlj*g(e, i, l, k) +
							dlk*dlk*g(e, i, j, l)
					}
					idx := e*n3 + i + n*j + n*n*k
					diag[idx] = acc + mass*s.w3[idx]
				}
			}
		}
	}
	s.DSSum(diag)
	s.invDiag = diag
	for i := range s.invDiag {
		s.invDiag[i] = 1 / s.invDiag[i]
	}
}

// GS exposes the dssum gather-scatter handle.
func (s *Solver) GS() *gs.GS { return s.gsh }

// DSSum performs the direct-stiffness summation: values at shared GLL
// points are summed across all elements (and ranks) holding them.
func (s *Solver) DSSum(u []float64) {
	reg := s.Rec.Region("dssum", obs.CatGS)
	s.gsh.Op(u, comm.OpSum)
	reg.End()
}

// GLSC2 returns the assembled global inner product of two redundantly
// stored continuous vectors (weighted by inverse multiplicity so shared
// points count once). Collective vector reduction.
func (s *Solver) GLSC2(a, b []float64) float64 {
	reg := s.Rec.Region("glsc", obs.CatKernel)
	local := 0.0
	for i := range a {
		local += a[i] * b[i] * s.invMult[i]
	}
	reg.End()
	s.Rank.SetSite("glsc")
	out := s.Rank.Allreduce(comm.OpSum, []float64{local})
	s.Rank.SetSite("")
	s.chargeCompute(sem.OpCount{Mul: int64(len(a)) * 2, Add: int64(len(a)),
		Load: int64(len(a)) * 3}, axTraits)
	return out[0]
}

var axTraits = hw.Traits{VecFrac: 0.5, OverheadPerFlop: 0.35, MissRate: 0.02}

func (s *Solver) chargeCompute(ops sem.OpCount, tr hw.Traits) {
	s.Ops = s.Ops.Plus(ops)
	s.Rank.Clock().Advance(hw.Time(s.Cfg.Machine, hw.Ops{
		Mul: ops.Mul, Add: ops.Add, Load: ops.Load, Store: ops.Store}, tr))
}

// Ax applies the assembled Helmholtz operator: w = (K + sigma*M) u, where
// K is the spectral-element stiffness matrix (D^T W D per direction with
// the constant unit-cube metric) and M the diagonal LGL mass matrix,
// followed by dssum. u must be continuous (equal values at shared
// points); w comes out continuous. This is Nekbone's ax kernel — the same
// small-matrix-multiply structure as CMT-bone's derivative kernel.
func (s *Solver) Ax(u, w []float64) {
	reg := s.Rec.Region("ax", obs.CatKernel)
	n := s.Cfg.N
	nel := s.Local.Nel
	rx := 2.0 // d(ref)/d(phys) for unit-cube elements
	geo := rx * rx / (rx * rx * rx)

	var ops sem.OpCount
	// Gradient.
	ops = ops.Plus(sem.Deriv(sem.DirR, sem.Optimized, s.Ref, u, s.dr, nel))
	ops = ops.Plus(sem.Deriv(sem.DirS, sem.Optimized, s.Ref, u, s.ds, nel))
	ops = ops.Plus(sem.Deriv(sem.DirT, sem.Optimized, s.Ref, u, s.dt, nel))
	// Diagonal geometric factor: quadrature weight times metric.
	for i := range s.dr {
		g := s.w3[i] * geo
		s.dr[i] *= g
		s.ds[i] *= g
		s.dt[i] *= g
	}
	// Divergence with the transposed operator: w = D^T(...) summed.
	ops = ops.Plus(sem.ApplyDir(sem.DirR, s.Ref.Dt, n, s.dr, w, nel))
	ops = ops.Plus(sem.ApplyDir(sem.DirS, s.Ref.Dt, n, s.ds, s.tmp, nel))
	for i := range w {
		w[i] += s.tmp[i]
	}
	ops = ops.Plus(sem.ApplyDir(sem.DirT, s.Ref.Dt, n, s.dt, s.tmp, nel))
	mass := s.Cfg.MassShift / (rx * rx * rx)
	for i := range w {
		w[i] += s.tmp[i] + mass*s.w3[i]*u[i]
	}
	reg.End()
	vol := int64(len(u))
	ops = ops.Plus(sem.OpCount{Mul: 6 * vol, Add: 4 * vol, Load: 8 * vol, Store: 4 * vol})
	s.chargeCompute(ops, axTraits)

	s.DSSum(w)
}

// Residuals holds the per-iteration residual norms of a CG solve.
type Residuals []float64

// CG runs iters conjugate-gradient iterations on Ax = f, starting from
// zero, and returns the solution along with the residual norm after each
// iteration. With Config.Jacobi the iteration is diagonally
// preconditioned. f must be continuous. Collective.
func (s *Solver) CG(f []float64, iters int) ([]float64, Residuals) {
	defer s.Rec.Region("cg_solve", obs.CatStep).End()

	n := len(f)
	x := make([]float64, n)
	r := append([]float64(nil), f...)
	z := make([]float64, n)
	w := make([]float64, n)
	applyPrecond := func() {
		if s.invDiag != nil {
			for i := range z {
				z[i] = r[i] * s.invDiag[i]
			}
		} else {
			copy(z, r)
		}
	}
	applyPrecond()
	p := append([]float64(nil), z...)

	res := make(Residuals, 0, iters)
	rz := s.GLSC2(r, z)
	for it := 0; it < iters; it++ {
		s.Ax(p, w)
		pw := s.GLSC2(p, w)
		if pw == 0 {
			break
		}
		alpha := rz / pw
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * w[i]
		}
		res = append(res, math.Sqrt(s.GLSC2(r, r)))
		applyPrecond()
		rznew := s.GLSC2(r, z)
		beta := rznew / rz
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
		rz = rznew
		vol := int64(n)
		s.chargeCompute(sem.OpCount{Mul: 4 * vol, Add: 3 * vol, Load: 8 * vol, Store: 4 * vol}, axTraits)
	}
	return x, res
}

// Report summarizes a Run.
type Report struct {
	Iters    int
	Residual float64 // final residual norm
	Ops      sem.OpCount
}

// Run executes the standard Nekbone workload: assemble a smooth
// right-hand side, run Cfg.Iters CG iterations, and report. Collective.
func (s *Solver) Run() Report {
	n := s.Cfg.N
	n3 := n * n * n
	f := make([]float64, s.Local.Nel*n3)
	for e := 0; e < s.Local.Nel; e++ {
		g := s.Local.GlobalElemCoords(e)
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					x := float64(g[0]) + (s.Ref.X[i]+1)/2
					y := float64(g[1]) + (s.Ref.X[j]+1)/2
					z := float64(g[2]) + (s.Ref.X[k]+1)/2
					f[e*n3+i+n*j+n*n*k] = math.Sin(x) * math.Cos(2*y) * math.Sin(3*z)
				}
			}
		}
	}
	// Make the RHS continuous (average shared points via dssum and
	// multiplicity), as Nekbone's setup does.
	s.DSSum(f)
	for i := range f {
		f[i] *= s.invMult[i]
	}
	_, res := s.CG(f, s.Cfg.Iters)
	s.Rec.Finish()
	final := 0.0
	if len(res) > 0 {
		final = res[len(res)-1]
	}
	return Report{Iters: len(res), Residual: final, Ops: s.Ops}
}
