package solver

import (
	"cmp"
	"math/bits"
	"time"

	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/sem"
)

// The modeled cost of a step is one table, the charge schedule: the
// whole-rank sweeps of a sweep-per-(field, direction) formulation, in
// their order. The passes run element by element instead, so charge
// bills the sweeps where they stood in the step, one chargeCompute each
// (merged charges round differently), and settle reports them: every
// virtual clock, phase split and span extent is the sweeps', bit for bit.

// The stages of the slot stopwatch (faceElems, volumeElem, postElems).
// A stage's wall is booked to the calls of the sweeps that name it.
const (
	faceExt  = iota // full2face_cmt: the state's traces
	faceFlux        // compute_flux_surface: the inviscid surface flux
	volPrim         // compute_primitive: velocity and pressure
	volTemp         // viscous compute_primitive: T = p/rho
	volGradR        // viscous gradient: ax_grad3_fused, or ax_deriv_dud{r,s,t} (Basic)
	volGradS
	volGradT
	volFlux    // compute_flux: Euler (+ viscous) flux, three directions; viscous stress and heat flux
	volFace    // full2face_cmt: viscous flux traces
	volR       // ax_deriv_dudr
	volS       // ax_deriv_duds
	volT       // ax_deriv_dudt
	volRest    // metric scaling + negation into rhs (unnamed, as ever)
	postLift   // numerical_flux: the flux correction and lift
	postSource // source_terms
	postDeal   // dealias: the fine-mesh round trip
	postUpdate // rk_update
	postFilter // spectral_filter
	numStages
	noStage = numStages // reported by its own Region, or (unnamed) not at all
)

var stageName = [numStages + 1]string{"face extract", "face flux", "v, p", "T", "grad r", "grad s", "grad t",
	"flux", "flux traces", "deriv r", "deriv s", "deriv t", "rest", "lift", "source", "dealias", "update", "filter", ""}

// pointwiseTraits models streaming arithmetic (flux evaluation, updates).
var pointwiseTraits = hw.Traits{VecFrac: 0.6, OverheadPerFlop: 0.3, MissRate: 0.01}

// sweep is one entry of the schedule.
type sweep struct {
	region, phase string       // "" for the unnamed rest; "" keeps the enclosing phase
	cat           obs.Category // what its calls report as
	stage         int          // the stopwatch stage its calls share
	ops           sem.OpCount  // per element
	traits        hw.Traits
}

// schedule is one configuration's table: its sweeps, in order, by the
// point of the step that bills them — in the wave-speed region, before
// any pass, after each faceRuns call and volume run (inviscid: each run
// ahead of the post-exchange pass that computes it), after the volume
// charges (overlap: each faceRuns call) and after the post-exchange pass.
type schedule struct {
	waveSpeed, primitive, gradient, face, surface, volume []sweep
	lift, source, dealias, earlyUpdate, update, filter    []sweep
}

// newSchedule builds the schedule of a configuration at order n with nf
// dealiasing points per direction.
func newSchedule(n, nf int, viscous bool, v sem.KernelVariant) schedule {
	n2, n3 := int64(n*n), int64(n*n*n)
	fp := sem.NFaces * n2 // face points
	pw := func(region string, stage int, ops sem.OpCount) sweep {
		return sweep{region, obs.PhaseOf(region, obs.CatKernel), obs.CatKernel, stage, ops, pointwiseTraits}
	}
	deriv := func(region string, stage, d int) sweep { // "": ax_deriv_dud{r,s,t}
		return sweep{cmp.Or(region, "ax_deriv_dud"+string("rst"[d])), obs.PhaseRHS, obs.CatKernel, stage, sem.DerivOps(n, 1), hw.DerivTraits(d, v == sem.Optimized)}
	}
	rest := func(ops sem.OpCount) sweep { return sweep{"", "", obs.CatKernel, noStage, ops, pointwiseTraits} }
	update := func(ops sem.OpCount) sweep {
		return sweep{"rk_update", obs.PhaseOf("rk_update", obs.CatRK), obs.CatRK, postUpdate, ops, pointwiseTraits}
	}

	var sc schedule
	sc.waveSpeed = []sweep{pw("wave_speed", noStage, sem.OpCount{Mul: 8 * n3, Add: 5 * n3, Load: NumFields * n3})}
	sc.primitive = []sweep{pw("compute_primitive", volPrim, sem.OpCount{Mul: 8 * n3, Add: 3 * n3, Load: NumFields * n3, Store: 4 * n3})}
	sc.face = []sweep{pw("full2face_cmt", faceExt, sem.OpCount{Load: NumFields * fp, Store: NumFields * fp})}
	for range NumFields {
		for d := 0; d < 3; d++ { // the flux (its viscous part first), its traces (viscous), its derivative
			fd := []sweep{pw("compute_flux", volFlux, sem.OpCount{Mul: n3, Add: n3, Load: 2 * n3, Store: n3}), deriv("", volR+d, d)}
			if viscous {
				fd = []sweep{pw("compute_flux", volFlux, sem.OpCount{Mul: 6 * n3, Add: 6 * n3, Load: 8 * n3, Store: n3}),
					fd[0], pw("full2face_cmt", volFace, sem.OpCount{Load: 2 * n2, Store: 2 * n2}), fd[1]}
			}
			sc.volume = append(sc.volume, fd...)
		}
	}
	sc.volume = append(sc.volume, rest(sem.OpCount{Mul: 3 * NumFields * n3, Add: 4 * NumFields * n3, Load: 2 * n3, Store: n3}))
	sc.lift = []sweep{pw("numerical_flux", postLift, sem.OpCount{Mul: 4 * NumFields * fp, Add: 4 * NumFields * fp, Load: 4 * NumFields * fp, Store: NumFields * fp})}
	sc.source = []sweep{pw("source_terms", postSource, sem.OpCount{Add: NumFields * n3, Load: 2 * NumFields * n3, Store: NumFields * n3})}
	sc.dealias = []sweep{pw("dealias", postDeal, sem.DealiasOps(n, nf, NumFields))}
	// The model bills the three stages' updates with the third.
	sc.earlyUpdate = []sweep{update(sem.OpCount{})}
	sc.update = []sweep{update(sem.OpCount{Mul: 6 * NumFields * n3, Add: 4 * NumFields * n3, Load: 8 * NumFields * n3, Store: 3 * NumFields * n3})}
	sc.filter = []sweep{pw("spectral_filter", postFilter, sem.FilterOps(n, NumFields))}
	if !viscous {
		sc.surface = []sweep{pw("compute_flux_surface", faceFlux, sem.OpCount{Mul: 6 * fp, Add: 4 * fp, Load: 2 * fp, Store: fp})}
		return sc
	}
	// T, the r/s/t derivatives of vx, vy, vz and T (Figure 4 records
	// Optimized's twelve as one ax_grad3_fused call), the rx scale.
	sc.gradient = []sweep{pw("compute_primitive", volTemp, sem.OpCount{Mul: n3, Load: 2 * n3, Store: n3})}
	fused := ""
	if v == sem.Optimized {
		fused = "ax_grad3_fused"
	}
	for range numGradQ {
		for d := 0; d < 3; d++ {
			sc.gradient = append(sc.gradient, deriv(fused, volGradR+d, d))
		}
	}
	sc.gradient = append(sc.gradient, rest(sem.OpCount{Mul: 3 * numGradQ * n3, Load: 3 * numGradQ * n3, Store: 3 * numGradQ * n3}))
	return sc
}

// call is a ledger entry, one region call: its stages (bit k: stage k),
// wall interval (at is zero until placed), wall timed apart from that
// interval, and virtual extent.
type call struct {
	region   string
	cat      obs.Category
	stages   uint32
	at       time.Time
	dur      time.Duration
	apart    time.Duration
	vt0, vt1 float64
}

// pass is wall, per stage, that no call has taken yet, and where the
// next call it is tiled over starts.
type pass struct {
	at   time.Time
	wall [numStages]time.Duration
}

// charge bills sweeps in order for nelr elements, each under its phase;
// a pass over no elements bills nothing. Sweeps with a stage land in the
// ledger, consecutive ones of one region as one call.
func (s *Solver) charge(sweeps []sweep, nelr int) {
	if nelr == 0 {
		return
	}
	clock, joins, first := s.Rank.Clock(), false, len(s.ledger)
	for _, sw := range sweeps {
		prev := clock.SetPhase(cmp.Or(sw.phase, clock.Phase()))
		vt0 := clock.Now()
		s.chargeCompute(sw.ops.Times(int64(nelr)), sw.traits)
		clock.SetPhase(prev)
		switch n := len(s.ledger); {
		case sw.stage == noStage:
		case joins && s.ledger[n-1].region == sw.region:
			s.ledger[n-1].stages |= 1 << sw.stage
			s.ledger[n-1].vt1 = clock.Now()
		default:
			s.ledger = append(s.ledger, call{sw.region, sw.cat, 1 << sw.stage, time.Time{}, 0, 0, vt0, clock.Now()})
		}
		joins = sw.stage != noStage
	}
	tile(s.ledger[first:], &s.pass)
}

// tile shares p's wall of each stage evenly among the calls that share
// the stage, and takes it from p: a call not yet placed lies end to end
// with the others from p.at, and one placed already (timed by an earlier
// pass too) adds its share to its wall apart from that interval.
func tile(calls []call, p *pass) {
	var share [numStages]time.Duration // calls, then each one's share
	for _, c := range calls {
		for st := c.stages; st != 0; st &= st - 1 {
			if k := bits.TrailingZeros32(st); p.wall[k] > 0 {
				share[k]++
			}
		}
	}
	for k, n := range share {
		if n > 0 {
			share[k], p.wall[k] = p.wall[k]/n, 0
		}
	}
	for i := range calls {
		c := &calls[i]
		var d time.Duration
		for st := c.stages; st != 0; st &= st - 1 {
			d += share[bits.TrailingZeros32(st)]
		}
		switch {
		case !c.at.IsZero():
			c.apart += d
		case d > 0:
			c.dur, c.at, p.at = d, p.at, p.at.Add(d)
		}
	}
}

// timePass makes a pass begun at start the last pass, its wall split over
// the stages as the slots' stopwatches saw it, and sets the previous aside.
func (s *Solver) timePass(start time.Time) {
	wall := time.Since(start)
	s.leave(start)
	var sum time.Duration
	for i := range s.volSlots {
		for k, d := range s.volSlots[i].secs {
			s.pass.wall[k], sum = s.pass.wall[k]+d, sum+d
		}
		s.volSlots[i].secs = [numStages]time.Duration{}
	}
	for k, d := range s.pass.wall {
		s.pass.wall[k] = time.Duration(float64(wall) * float64(d) / float64(max(sum, 1)))
	}
}

// chargeAhead bills the primitives and the viscous gradient, which the
// volume pass forms per element, where their whole-rank sweeps stood:
// before any pass of the right-hand side.
func (s *Solver) chargeAhead() {
	s.charge(s.sched.primitive, s.Local.Nel)
	s.charge(s.sched.gradient, s.Local.Nel)
	s.ahead, s.owed = len(s.ledger), len(s.ledger)
}

// chargeVolume bills the inviscid volume sweeps of each run at their
// place in the step (blocking: between the face pass and the surface
// flux; overlap: the interior runs before their face pass, the boundary
// runs after the exchange), ahead of the post-exchange pass that computes
// them: the calls take that pass's wall (postRuns).
func (s *Solver) chargeVolume(runs [][2]int) {
	for _, run := range runs {
		s.charge(s.sched.volume, run[1]-run[0])
	}
}

// leave tiles the last pass's untaken wall over the calls charged ahead
// that share it — a call billed once per right-hand side and timed by
// several passes lies in the first, since no one pass holds all of its
// wall, and reports the others' share in the profile only — sets aside
// what no such call shares for calls not yet charged (with overlap, the
// interior post-exchange pass's lift and update, charged after the
// boundary pass), and opens a pass at next.
func (s *Solver) leave(next time.Time) {
	tile(s.ledger[:s.ahead], &s.pass)
	for k, w := range s.pass.wall {
		if w > 0 {
			s.left.wall[k] += w
			s.left.at = cmp.Or(s.left.at, s.pass.at)
		}
	}
	s.pass = pass{at: next}
}

// settle tiles the set-aside wall over the calls not yet placed, then
// reports the ledger, one right-hand side's calls, and empties it.
func (s *Solver) settle() {
	s.leave(time.Time{})
	tile(s.ledger, &s.left)
	for _, c := range s.ledger {
		s.Rec.Add(c.region, c.cat, c.at, c.dur, c.vt0, c.vt1)
		if c.apart > 0 {
			s.Rec.AddWall(c.region, c.apart)
		}
	}
	s.ledger, s.left, s.ahead = s.ledger[:0], pass{}, 0
}

// CostRow is a sweep of a charge schedule as DESIGN.md lists it.
type CostRow struct {
	Point, Region, Phase, Stage string
	Ops                         sem.OpCount
	Traits                      hw.Traits
}

// CostSchedule lists a configuration's charge schedule at order n with
// nf dealiasing points per direction.
func CostSchedule(n, nf int, viscous bool, v sem.KernelVariant) []CostRow {
	sc := newSchedule(n, nf, viscous, v)
	points := []string{"wave speed", "primitive", "gradient", "face", "surface", "volume",
		"lift", "source", "dealias", "early update", "update", "filter"}
	var rows []CostRow
	for i, sweeps := range [][]sweep{sc.waveSpeed, sc.primitive, sc.gradient, sc.face, sc.surface, sc.volume,
		sc.lift, sc.source, sc.dealias, sc.earlyUpdate, sc.update, sc.filter} {
		for _, sw := range sweeps {
			rows = append(rows, CostRow{points[i], sw.region, sw.phase, stageName[sw.stage], sw.ops, sw.traits})
		}
	}
	return rows
}
