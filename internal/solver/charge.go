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

// The stages of the slot stopwatch (faceElems, volumeElems). A stage's
// wall is booked to the calls of the sweeps that name it.
const (
	faceExt  = iota // full2face_cmt: the state's traces
	faceFlux        // compute_flux_surface: the inviscid surface flux
	volTemp         // viscous compute_primitive: T = p/rho
	volGradR        // viscous gradient: ax_grad3_fused, or ax_deriv_dud{r,s,t} (Basic)
	volGradS
	volGradT
	volFlux // compute_flux: Euler (+ viscous) flux, three directions; viscous stress and heat flux
	volFace // full2face_cmt: viscous flux traces
	volR    // ax_deriv_dudr
	volS    // ax_deriv_duds
	volT    // ax_deriv_dudt
	volRest // metric scaling + negation into rhs (unnamed, as ever)
	numStages
	noStage = numStages // reported by its own Region, or (unnamed) not at all
)

var stageName = [numStages + 1]string{"face extract", "face flux", "T", "grad r", "grad s", "grad t",
	"flux", "flux traces", "deriv r", "deriv s", "deriv t", "rest", ""}

// pointwiseTraits models streaming arithmetic (flux evaluation, updates).
var pointwiseTraits = hw.Traits{VecFrac: 0.6, OverheadPerFlop: 0.3, MissRate: 0.01}

// sweep is one entry of the schedule.
type sweep struct {
	region, phase string      // "" for the unnamed rest; "" keeps the enclosing phase
	stage         int         // the stopwatch stage its calls share
	ops           sem.OpCount // per element
	traits        hw.Traits
}

// schedule is one configuration's table: its sweeps, in order, by the
// point of the step that bills them — in the regions so named (update:
// the last rk_update), after each faceRuns call and volume run, before
// any pass, and after the volume runs (overlap: each faceRuns call).
type schedule struct {
	waveSpeed, primitive, gradient, face, surface, volume, lift, source, update []sweep
}

// newSchedule builds the schedule of a configuration at order n.
func newSchedule(n int, viscous bool, v sem.KernelVariant) schedule {
	n2, n3 := int64(n*n), int64(n*n*n)
	fp := sem.NFaces * n2 // face points
	pw := func(region string, stage int, ops sem.OpCount) sweep {
		return sweep{region, obs.PhaseOf(region, obs.CatKernel), stage, ops, pointwiseTraits}
	}
	deriv := func(region string, stage, d int) sweep { // "": ax_deriv_dud{r,s,t}
		return sweep{cmp.Or(region, "ax_deriv_dud"+string("rst"[d])), obs.PhaseRHS, stage, sem.DerivOps(n, 1), hw.DerivTraits(d, v == sem.Optimized)}
	}
	rest := func(ops sem.OpCount) sweep { return sweep{"", "", noStage, ops, pointwiseTraits} }

	var sc schedule
	sc.waveSpeed = []sweep{pw("wave_speed", noStage, sem.OpCount{Mul: 8 * n3, Add: 5 * n3, Load: NumFields * n3})}
	sc.primitive = []sweep{pw("compute_primitive", noStage, sem.OpCount{Mul: 8 * n3, Add: 3 * n3, Load: NumFields * n3, Store: 4 * n3})}
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
	sc.lift = []sweep{pw("numerical_flux", noStage, sem.OpCount{Mul: 4 * NumFields * fp, Add: 4 * NumFields * fp, Load: 4 * NumFields * fp, Store: NumFields * fp})}
	sc.source = []sweep{pw("source_terms", noStage, sem.OpCount{Add: NumFields * n3, Load: 2 * NumFields * n3, Store: NumFields * n3})}
	sc.update = []sweep{{"rk_update", obs.PhaseOf("rk_update", obs.CatRK), noStage,
		sem.OpCount{Mul: 6 * NumFields * n3, Add: 4 * NumFields * n3, Load: 8 * NumFields * n3, Store: 3 * NumFields * n3}, pointwiseTraits}}
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
// wall interval (at is zero until placed) and virtual extent.
type call struct {
	region   string
	stages   uint32
	at       time.Time
	dur      time.Duration
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
			s.ledger = append(s.ledger, call{sw.region, 1 << sw.stage, time.Time{}, 0, vt0, clock.Now()})
		}
		joins = sw.stage != noStage
	}
	tile(s.ledger[first:], &s.pass)
}

// tile lays the unplaced calls that share a stage of p end to end from
// p.at, each taking of p's wall of each of its stages an even share
// among the calls of that stage, and takes those stages' wall from p.
func tile(calls []call, p *pass) {
	var share [numStages]time.Duration // calls, then each one's share
	for _, c := range calls {
		for st := c.stages; st != 0 && c.at.IsZero(); st &= st - 1 {
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
		for st := c.stages; st != 0 && c.at.IsZero(); st &= st - 1 {
			c.dur += share[bits.TrailingZeros32(st)]
		}
		if c.at.IsZero() && c.dur > 0 {
			c.at, p.at = p.at, p.at.Add(c.dur)
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

// leave sets aside the last pass's untaken wall, placed after its calls,
// for calls charged away from their passes (the viscous gradient, the
// blocking surface flux), and opens a pass at next.
func (s *Solver) leave(next time.Time) {
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
		s.Rec.Add(c.region, obs.CatKernel, c.at, c.dur, c.vt0, c.vt1)
	}
	s.ledger, s.left = s.ledger[:0], pass{}
}

// CostRow is a sweep of a charge schedule as DESIGN.md lists it.
type CostRow struct {
	Point, Region, Phase, Stage string
	Ops                         sem.OpCount
	Traits                      hw.Traits
}

// CostSchedule lists a configuration's charge schedule at order n.
func CostSchedule(n int, viscous bool, v sem.KernelVariant) []CostRow {
	sc := newSchedule(n, viscous, v)
	points := []string{"wave speed", "primitive", "gradient", "face", "surface", "volume", "lift", "source", "update"}
	var rows []CostRow
	for i, sweeps := range [][]sweep{sc.waveSpeed, sc.primitive, sc.gradient, sc.face, sc.surface, sc.volume, sc.lift, sc.source, sc.update} {
		for _, sw := range sweeps {
			rows = append(rows, CostRow{points[i], sw.region, sw.phase, stageName[sw.stage], sw.ops, sw.traits})
		}
	}
	return rows
}
