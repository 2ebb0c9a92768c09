package gs

import (
	"fmt"
	"math"
	"time"

	"repro/internal/comm"
)

// Timing summarizes one exchange method's measured cost across all ranks,
// the rows of the paper's Figure 7 ("Time (avg) / (min) / (max) seconds").
type Timing struct {
	Method Method
	// Host wall seconds per operation: mean/min/max of the per-rank
	// averages over the tuning trials.
	WallAvg, WallMin, WallMax float64
	// Modeled network seconds per operation under the rank's netmodel,
	// same statistics.
	ModelAvg, ModelMin, ModelMax float64
}

// Criterion selects the time base tuning minimizes. Selection always
// follows the parent library's rule — a collective step is over only
// when its slowest rank finishes, so the worst rank's time is what
// counts — but that time can be read off two clocks.
type Criterion int

const (
	// ByWallTime minimizes the worst rank's measured host time.
	ByWallTime Criterion = iota
	// ByModeledTime minimizes the worst rank's modeled network time —
	// the right criterion when simulating a cluster-scale machine from a
	// laptop, where host scheduling noise would otherwise dominate.
	ByModeledTime
)

// String implements fmt.Stringer.
func (c Criterion) String() string {
	switch c {
	case ByWallTime:
		return "wall"
	case ByModeledTime:
		return "modeled"
	}
	return fmt.Sprintf("Criterion(%d)", int(c))
}

// SelectBest returns the method whose worst-rank time is smallest under
// the criterion. Ties keep the earlier entry, so a deterministic timing
// list yields a deterministic choice on every rank.
func SelectBest(timings []Timing, crit Criterion) Method {
	best := timings[0]
	cost := func(t Timing) float64 {
		if crit == ByModeledTime {
			return t.ModelMax
		}
		return t.WallMax
	}
	for _, t := range timings[1:] {
		if cost(t) < cost(best) {
			best = t
		}
	}
	return best.Method
}

// TuneBy times every feasible exchange method trials times on scratch
// data and commits the winner under crit as the handle's default method.
// Like the parent library's startup step ("three gather-scatter methods
// are evaluated to determine which one performs the best for the given
// problem setup and machine"), selection minimizes the worst rank's
// time. TuneBy is collective; the timings — and therefore the choice —
// are identical on every rank. The handle's method is written exactly
// once, after all measurement: it is never transiently set to a
// different winner mid-tune, so an exchange concurrent with nothing but
// ordinary use always sees a consistent method.
func TuneBy(g *GS, trials int, crit Criterion) (Method, []Timing) {
	timings := g.timeMethods(trials)
	best := SelectBest(timings, crit)
	g.method = best
	return best, timings
}

// Tune is TuneBy with the wall-time criterion.
func Tune(g *GS, trials int) (Method, []Timing) {
	return TuneBy(g, trials, ByWallTime)
}

// TuneModeled is TuneBy with the modeled-time criterion.
func TuneModeled(g *GS, trials int) (Method, []Timing) {
	return TuneBy(g, trials, ByModeledTime)
}

// timeMethods measures every feasible method without touching the
// handle's selected method.
func (g *GS) timeMethods(trials int) []Timing {
	if trials < 1 {
		trials = 1
	}
	r := g.rank
	values := make([]float64, g.n)
	for i := range values {
		values[i] = float64(i%13) + 0.5
	}
	methods := g.FeasibleMethods()
	timings := make([]Timing, 0, len(methods))
	for _, m := range methods {
		// Warm once (first-use allocations), then time.
		g.OpWith(values, comm.OpSum, m)
		r.Barrier()
		v0 := r.Clock().Now()
		start := time.Now()
		for t := 0; t < trials; t++ {
			g.OpWith(values, comm.OpSum, m)
		}
		wall := time.Since(start).Seconds() / float64(trials)
		model := (r.Clock().Now() - v0) / float64(trials)

		// Reduce the per-rank costs into cross-rank statistics every
		// rank can see.
		stats := []float64{wall, -wall, wall, model, -model, model}
		// slots: [maxWall, -minWall, sumWall, maxModel, -minModel, sumModel]
		r.Allreduce(comm.OpMax, stats[:2])
		r.Allreduce(comm.OpSum, stats[2:3])
		r.Allreduce(comm.OpMax, stats[3:5])
		r.Allreduce(comm.OpSum, stats[5:6])
		p := float64(r.Size())
		timings = append(timings, Timing{
			Method:   m,
			WallMax:  stats[0],
			WallMin:  -stats[1],
			WallAvg:  stats[2] / p,
			ModelMax: stats[3],
			ModelMin: -stats[4],
			ModelAvg: stats[5] / p,
		})
	}
	return timings
}

// LocalRate is the measured speed of a handle's local kernels.
type LocalRate struct {
	// Points is the number of vector entries one operation touches (every
	// occurrence of an active id).
	Points int
	// NsPerPoint is wall nanoseconds per point per operation, best trial.
	NsPerPoint float64
	// GBps is computed, not measured, traffic over that time: per point an
	// int32 index read, a value read and a value written, plus per CSR
	// group an offset read and, for remote slots, the partial's round trip.
	GBps float64
}

// LocalRate times the local half of an OpSum on scratch data — the pass
// over local-only ids, the remote gather and the remote scatter, with no
// exchange between them — the way kernelbench gives the derivative
// kernels a rate. Not collective; the handle's state is untouched.
func (g *GS) LocalRate(trials int) LocalRate {
	ix := &g.ix
	src, dst := make([]float64, g.n), make([]float64, g.n)
	for i := range src {
		src[i] = float64(i%13) + 0.5
	}
	partial := make([]float64, len(ix.remID))
	points := 2*len(ix.pairA) + len(ix.locIdx) + len(ix.remIdx)
	groups := len(ix.locID) + len(ix.remID)
	bytes := float64(points*(4+8+8) + groups*4 + len(ix.remID)*16)
	best := math.Inf(1)
	for t := 0; t < max(trials, 1); t++ {
		start := time.Now()
		gather(partial, src, ix.remOff, ix.remIdx, comm.OpSum)
		ix.local(dst, src, g.locVals, comm.OpSum)
		scatter(dst, partial, ix.remOff, ix.remIdx)
		best = min(best, time.Since(start).Seconds())
	}
	if points == 0 {
		return LocalRate{}
	}
	return LocalRate{Points: points, NsPerPoint: best * 1e9 / float64(points), GBps: bytes / best / 1e9}
}
