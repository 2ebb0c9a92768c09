// Package loadbal is the dynamic load-balancing subsystem: it watches the
// measured per-element cost of the running solver, and when the rank cost
// imbalance exceeds a threshold — and a model of the migration traffic
// says the move pays for itself within a horizon — it repartitions the
// element mesh along a space-filling curve and migrates element state and
// particles to the new owners mid-run.
//
// The design follows the dynamic load-balancing loop of behavioral
// emulation studies of CMT-nek (Zhai et al., see DESIGN.md): measure,
// decide centrally, migrate collectively. Costs are measured (not
// modeled): each rank attributes its virtual-clock kernel seconds to
// elements by weight share, adds a per-particle surcharge, and smooths
// the result with an EWMA so one noisy epoch cannot thrash the
// partition. The smoothed estimate is per-element solver state
// (Solver.Cost), carried in the element record, so it follows an element
// through Remap, checkpoints and crash recovery. Migration moves data
// only, so the global solution is bit-identical to a run that never
// rebalanced.
package loadbal

// Config tunes the balancer. The zero value picks all defaults.
type Config struct {
	// Threshold is the rank cost imbalance (max/mean modeled seconds per
	// step) above which a rebalance is considered (default 1.2).
	Threshold float64
	// Every is the epoch length: the balancer measures and decides every
	// Every steps (default 10).
	Every int
	// EWMA is the smoothing factor applied to per-element cost samples:
	// cost <- EWMA*sample + (1-EWMA)*cost (default 0.5; 1 disables
	// smoothing).
	EWMA float64
	// ParticleCost is the modeled seconds one resident particle adds to
	// its element per step (default 0: fluid kernel cost only).
	ParticleCost float64
	// Horizon is the number of future steps a new partition is assumed
	// to persist when weighing its one-time migration cost against the
	// per-step makespan gain (default Every).
	Horizon int
	// MinGain is an absolute floor (modeled seconds over the horizon) the
	// net gain must clear before migrating (default 0).
	MinGain float64
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Threshold <= 0 {
		c.Threshold = 1.2
	}
	if c.Every <= 0 {
		c.Every = 10
	}
	if c.EWMA <= 0 || c.EWMA > 1 {
		c.EWMA = 0.5
	}
	if c.Horizon <= 0 {
		c.Horizon = c.Every
	}
	return c
}
