package solver

import (
	"math"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/sem"
)

// MaxWaveSpeed computes the global maximum |velocity| + sound speed — the
// Lax-Friedrichs dissipation coefficient and the CFL speed. Collective
// (allreduce max, one of the mini-app's vector reductions).
func (s *Solver) MaxWaveSpeed() float64 {
	reg := s.Rec.Region("wave_speed", obs.CatKernel)
	// Per-slot partial maxima: max is order-insensitive, so chunked
	// partials merged on the rank goroutine are bit-identical to the
	// serial sweep at any worker count.
	part := s.wsPart
	for i := range part {
		part[i] = 0
	}
	s.pool.ForSlots(len(s.U[IRho]), s.wsBody)
	local := 0.0
	for _, v := range part {
		if v > local {
			local = v
		}
	}
	s.charge(s.sched.waveSpeed, s.Local.Nel)
	reg.End()
	// The reduction is a span, not a region: Figure 4 has no row for it.
	red := s.Rec.Span("glmax", obs.CatComm)
	s.Rank.SetSite("glmax")
	s.wsMax[0] = local
	out := s.Rank.Allreduce(comm.OpMax, s.wsMax[:])
	s.Rank.SetSite("")
	red.End()
	s.lambda = out[0]
	return out[0]
}

// waveSpeedPoints folds points [lo, hi) of the state into pool slot
// slot's partial maximum wave speed.
func (s *Solver) waveSpeedPoints(slot, lo, hi int) {
	pm := 0.0
	var u [NumFields]float64
	for i := lo; i < hi; i++ {
		for c := 0; c < NumFields; c++ {
			u[c] = s.U[c][i]
		}
		inv := 1 / u[IRho]
		speed2 := (u[IMomX]*u[IMomX] + u[IMomY]*u[IMomY] + u[IMomZ]*u[IMomZ]) * inv * inv
		p := pressure(&u)
		cs := math.Sqrt(Gamma * p * inv)
		if v := math.Sqrt(speed2) + cs; v > pm {
			pm = v
		}
	}
	s.wsPart[slot] = pm
}

// StableDt returns a CFL-stable time step for the current state:
// dt = CFL * h / (N^2 * lambda), the spectral-element CFL rule with the
// minimum node spacing scaling as h/N^2. Collective.
func (s *Solver) StableDt() float64 {
	lam := s.MaxWaveSpeed()
	if lam == 0 {
		lam = 1
	}
	h := 1.0 // unit-cube elements
	n := float64(s.Cfg.N)
	return s.Cfg.CFL * h / (n * n * lam)
}

// Step advances the state by one SSP-RK3 step of size dt. Collective.
// Each stage's right-hand side ends in one pass over the elements that
// also updates them (postElems), so the step holds two registers, U and
// u1.
func (s *Solver) Step(dt float64) {
	defer s.Rec.Region("timestep", obs.CatStep).End()
	s.rhsEval(&s.U, 1, dt)  // u1 = U + dt RHS(U)
	s.rhsEval(&s.u1, 2, dt) // u1 = 3/4 U + 1/4 (u1 + dt RHS(u1))
	s.rhsEval(&s.u1, 3, dt) // U = 1/3 U + 2/3 (u1 + dt RHS(u1)), then the filter
}

// stepTelemetry emits this rank's share of the finished step into the
// configured step collector: the virtual clock and per-bucket MPI
// deltas since the previous step, split into compute / wait / comm
// modeled seconds. It reads clocks and profiles but advances nothing,
// so the modeled run is identical with telemetry on or off.
func (s *Solver) stepTelemetry(step int, dt float64) {
	s.simTime += dt
	if s.Cfg.Overlap {
		// Cumulative modeled comm seconds this rank hid behind interior
		// compute, charged as per-step deltas (the registry is shared, so
		// the gauge sums over ranks).
		if h := s.Rank.Clock().OverlapHiddenSeconds(); h > s.prevHidden {
			s.Cfg.Metrics.Gauge("overlap_hidden_seconds").Add(h - s.prevHidden)
			s.prevHidden = h
		}
	}
	if s.Cfg.Steps == nil {
		return
	}
	var dg map[string]float64
	if s.Cfg.StepDiag != nil {
		dg = s.Cfg.StepDiag(s)
	}
	tot := s.Rank.Profile().Totals()
	vt := s.Rank.Clock().Now()
	commS := tot.Modeled - s.prevSplit.Modeled
	compute := (vt - s.prevVT) - commS
	if compute < 0 {
		compute = 0
	}
	s.Cfg.Steps.Report(step, s.simTime, dt, s.gsh.Method().String(), obs.RankStep{
		Rank:    s.Rank.WorldID(),
		VT:      vt,
		Compute: compute,
		Wait:    tot.Wait - s.prevSplit.Wait,
		Comm:    commS,
		Bytes:   tot.BytesSent - s.prevSplit.BytesSent,
	}, dg)
	s.prevSplit = tot
	s.prevVT = vt
}

// DtController implements growth-limited adaptive time stepping (the
// "adaptive time stepping" item of the paper's Section VII roadmap): the
// step follows the CFL-stable dt of the evolving state, but step-to-step
// growth is capped so the integrator cannot leap after a transient lull
// in the wave speed, and any shrink is taken immediately.
type DtController struct {
	// MaxGrowth caps dt_{n+1}/dt_n (default 1.1).
	MaxGrowth float64
	prev      float64
}

// Next returns the time step to use given the currently stable dt.
func (c *DtController) Next(stable float64) float64 {
	g := c.MaxGrowth
	if g <= 1 {
		g = 1.1
	}
	dt := stable
	if c.prev > 0 && dt > c.prev*g {
		dt = c.prev * g
	}
	c.prev = dt
	return dt
}

// RunAdaptive advances steps timesteps under a growth-limited adaptive
// controller and returns the summary plus the dt history. Collective.
func (s *Solver) RunAdaptive(steps int, ctl *DtController) (Report, []float64) {
	if ctl == nil {
		ctl = &DtController{}
	}
	hist := make([]float64, 0, steps)
	var dt float64
	for i := 0; i < steps; i++ {
		dt = ctl.Next(s.StableDt())
		s.Step(dt)
		s.stepTelemetry(i, dt)
		hist = append(hist, dt)
	}
	return s.FinishReport(steps, dt), hist
}

// Report summarizes a Run.
type Report struct {
	Steps     int
	Dt        float64
	Mass      float64 // global density integral after the run
	Energy    float64 // global energy integral after the run
	WaveSpeed float64 // final lambda
	Ops       sem.OpCount
}

// Run advances the solver steps timesteps, recomputing the stable dt and
// wave speed each step (the per-step vector reductions of the real code),
// and returns a summary. Collective.
func (s *Solver) Run(steps int) Report {
	return s.RunWith(steps, nil)
}

// RunWith is Run with a per-step hook: after is called at the end of
// every timestep (post-telemetry). The hook may be collective — the load
// balancer's epoch logic runs here — but must be called consistently on
// every rank.
func (s *Solver) RunWith(steps int, after func(step int)) Report {
	var dt float64
	for i := 0; i < steps; i++ {
		dt = s.AdvanceStep(i)
		if after != nil {
			after(i)
		}
	}
	return s.FinishReport(steps, dt)
}

// AdvanceStep runs one full timestep — the stable-dt reduction, the
// SSP-RK3 step, and step telemetry — and returns the dt used. Collective.
// External step drivers (e.g. the fault runner, whose loop interleaves
// heartbeats, auto-checkpoints and recovery between steps) use this
// instead of Run and finish with FinishReport.
func (s *Solver) AdvanceStep(step int) float64 {
	dt := s.StableDt()
	s.Step(dt)
	s.stepTelemetry(step, dt)
	return dt
}

// FinishReport closes the recorder's wall-clock window and summarizes the run — the shared
// tail of Run/RunWith and of external step drivers.
func (s *Solver) FinishReport(steps int, dt float64) Report {
	s.Rec.Finish()
	return Report{
		Steps:     steps,
		Dt:        dt,
		Mass:      s.TotalMass(),
		Energy:    s.Integrate(IEnergy),
		WaveSpeed: s.lambda,
		Ops:       s.Ops,
	}
}

// SimTime returns the accumulated simulated time.
func (s *Solver) SimTime() float64 { return s.simTime }

// SetSimTime overwrites the accumulated simulated time (checkpoint
// restore onto a freshly built solver).
func (s *Solver) SetSimTime(t float64) { s.simTime = t }
