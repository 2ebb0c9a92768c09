// Package solver is the CMT-bone mini-app core: an explicit discontinuous
// Galerkin spectral-element solver for the compressible Euler equations
// (the conservation law of the paper's Section III with zero source
// terms, matching the current CMT-nek state the mini-app abstracts). One
// time step exercises exactly the kernels the paper identifies:
//
//   - the derivative (ax_) kernel — small matrix multiplies applying the
//     N x N derivative operator over (N,N,N,Nel) data — for the flux
//     divergence;
//   - full2face_cmt surface extraction and its inverse;
//   - gs_op nearest-neighbor exchange through the gather-scatter library
//     for the numerical flux;
//   - vector reductions (allreduce) for the CFL time step and wave speed;
//   - optionally the dealiasing map to a finer reference mesh and back.
package solver

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/gs"
	"repro/internal/hw"
	"repro/internal/mesh"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/sem"
)

// NumFields is the number of conserved variables: density, three momentum
// components, and total energy.
const NumFields = 5

// Conserved-variable indices.
const (
	IRho = iota
	IMomX
	IMomY
	IMomZ
	IEnergy
)

// Gamma is the ratio of specific heats of the ideal gas.
const Gamma = 1.4

// BoundaryCondition selects the non-periodic boundary treatment.
type BoundaryCondition int

// Boundary conditions.
const (
	// BCFreestream leaves boundary faces uncorrected (the interior flux
	// is its own numerical flux): waves pass out with no reflection at
	// leading order. The mini-app default.
	BCFreestream BoundaryCondition = iota
	// BCWall is a slip (reflective) wall: the numerical flux sees a
	// mirror ghost state with the normal momentum negated, sealing the
	// box — zero mass and energy flux through the boundary.
	BCWall
)

// String implements fmt.Stringer.
func (b BoundaryCondition) String() string {
	switch b {
	case BCFreestream:
		return "freestream"
	case BCWall:
		return "wall"
	}
	return fmt.Sprintf("BoundaryCondition(%d)", int(b))
}

// Config describes one CMT-bone run. The zero value is not valid; use
// DefaultConfig and override.
type Config struct {
	// N is the number of LGL points per direction per element (the
	// paper's "number of grid points along any one direction", 5-25).
	N int
	// ProcGrid is the processor grid; its product must equal the
	// communicator size.
	ProcGrid [3]int
	// ElemGrid is the global element grid; divisible by ProcGrid.
	ElemGrid [3]int
	// Periodic marks wrapping directions. The mini-app default is fully
	// periodic (no physical boundaries to model).
	Periodic [3]bool
	// BC selects the treatment of non-periodic domain boundaries.
	BC BoundaryCondition
	// Variant selects the derivative-kernel loop structure.
	Variant sem.KernelVariant
	// GSMethod is the gather-scatter exchange algorithm; ignored when
	// AutoTune is set.
	GSMethod gs.Method
	// AutoTune, when set, runs the startup gather-scatter tuner (the
	// paper's initialization step) and uses its choice.
	AutoTune bool
	// TuneTrials is the number of timing trials per method (default 3).
	TuneTrials int
	// Dealias enables the fine-mesh round trip each step.
	Dealias bool
	// GaussDealias switches the dealiasing fine mesh from Lobatto to
	// interior Gauss points (Nek5000's over-integration rule). Only
	// meaningful with Dealias.
	GaussDealias bool
	// FilterCutoff, when > 0, enables the modal spectral filter (the
	// shock-capturing proxy of the CMT-nek roadmap): Legendre modes
	// below the cutoff pass untouched, higher modes are attenuated
	// after every step.
	FilterCutoff int
	// FilterStrength blends the filtered field: u <- (1-a)u + a Fu.
	// Default 0.05 when the filter is enabled.
	FilterStrength float64
	// PackedExchange moves all five conserved-variable face traces per
	// gather-scatter call in one packed message per neighbor
	// (gs_op_fields) instead of one message per field. Default false:
	// per-field messages, matching the paper's profile.
	PackedExchange bool
	// Overlap enables compute/communication overlap in the right-hand
	// side: each rank classifies its elements into interior (no remotely
	// shared face points) and boundary sets from the gs topology, posts
	// the face exchange as soon as the boundary traces exist, and runs
	// the interior volume kernels while the messages are in flight
	// (gslib's split-phase gs_op). Pure reordering of independent work:
	// results are bit-identical with overlap on or off; only the modeled
	// time changes (exchange latency hides behind interior compute).
	Overlap bool
	// Mu is the dynamic viscosity; > 0 enables the compressible
	// Navier-Stokes viscous flux path (CMT-nek's full governing
	// equations). Zero — the default — is the inviscid Euler path the
	// current CMT-bone exercises.
	Mu float64
	// Pr is the Prandtl number for the Fourier heat flux (default 0.72).
	Pr float64
	// CFL is the time-step safety factor (default 0.3).
	CFL float64
	// Machine is the processor model used to advance the virtual clock
	// for behavioral emulation (default hw.Generic).
	Machine hw.Machine

	// HotElems skews the modeled per-element compute cost: global
	// element id -> work multiplier (> 0; absent elements cost 1). It
	// models the non-uniform element cost of multiphase flow — particle
	// clouds concentrating in a few elements — without changing the
	// physics: only the virtual clock feels it, so solutions are
	// bit-identical with any skew. This is the knob load-imbalance
	// scenarios are built from; the load balancer migrates hot elements
	// to even the skew out. Shared by all ranks.
	HotElems map[int64]float64

	// Ownership, when non-nil, replaces the uniform box split with an
	// explicit element->rank map (e.g. restored from a checkpoint taken
	// after a rebalance). It must be built over the same Box this config
	// describes and be identical on every rank.
	Ownership *mesh.Ownership

	// Ref, when non-nil, is a prebuilt reference element reused instead
	// of rebuilding the LGL (or Gauss-dealiasing) operators — the
	// operator-matrix half of a setup-artifact cache. It must have been
	// built for the same N and the same GaussDealias choice; New
	// verifies the order and falls back to a fresh build on mismatch.
	Ref *sem.Ref1D

	// GSTopo, when non-nil, is a per-rank table of prebuilt
	// gather-scatter topologies (indexed by rank id, extracted by
	// gs.GS.Topology from an identical earlier run): ranks with an entry
	// skip the collective gs_setup discovery phase entirely. It only
	// applies to the initial setup over the starting partition; element
	// migration (Remap, post-Shrink rebuilds) always rediscovers.
	// Entries must cover all ranks or none — a partial table would leave
	// some ranks waiting in a collective the others skip.
	GSTopo []*gs.Topology

	// Workers is the intra-rank worker-pool width for the
	// element-indexed kernels (two-level concurrency: ranks x workers).
	// Elements write disjoint output, so results are bit-identical at
	// any worker count, and the modeled virtual time — charged
	// analytically from structural op counts — is unchanged; workers
	// move wall time only. 0 or 1 means serial. See pool.DefaultWorkers
	// for the cmd-level default.
	Workers int
	// Metrics, when non-nil, receives the worker pool's occupancy and
	// steal counters (pool_jobs, pool_chunks, pool_steals,
	// pool_busy_workers). Shared by all ranks.
	Metrics *obs.Registry

	// Obs, when non-nil, retains every region the ranks' recorders open
	// (timestep, RK stage, kernel, exchange) as a span (export with
	// Obs.WritePerfetto). Nil means aggregate only: Solver.Rec still keeps
	// the Figure 4 profile and drives the phase accounting. Shared by all
	// ranks; recording never advances the virtual clock, so modeled
	// results are unchanged.
	Obs *obs.Tracer
	// Steps, when non-nil, receives one step-metrics record per
	// timestep per rank (the JSONL stream). Shared by all ranks.
	Steps *obs.StepCollector
	// StepDiag, when non-nil, runs once per timestep after the step and
	// its result is embedded in the step record. It executes on every
	// rank (so it may be collective, e.g. diag.StepScalars); only
	// meaningful together with Steps.
	StepDiag func(*Solver) map[string]float64
}

// DefaultConfig returns a small, fully periodic setup for p ranks:
// near-cubic processor grid, elemsPerDir local elements per direction per
// rank.
func DefaultConfig(p, n, elemsPerDir int) Config {
	pg := comm.FactorGrid(p)
	return Config{
		N:        n,
		ProcGrid: pg,
		ElemGrid: [3]int{pg[0] * elemsPerDir, pg[1] * elemsPerDir, pg[2] * elemsPerDir},
		Periodic: [3]bool{true, true, true},
		Variant:  sem.Optimized,
		GSMethod: gs.Pairwise,
		CFL:      0.3,
		Machine:  hw.Generic,
	}
}

// PaperFig7Config reproduces the Figure 7 problem setup: 256 processors
// (8 x 8 x 4), 100 elements per process (5 x 5 x 4), 25600 elements
// total, 10 grid points per element direction.
func PaperFig7Config() Config {
	cfg := DefaultConfig(256, 10, 1)
	cfg.ProcGrid = [3]int{8, 8, 4}
	cfg.ElemGrid = [3]int{40, 40, 16}
	return cfg
}

// Validate checks internal consistency against a communicator of size p.
func (c *Config) Validate(p int) error {
	if c.N < 2 {
		return fmt.Errorf("solver: N must be >= 2, got %d", c.N)
	}
	if prod := c.ProcGrid[0] * c.ProcGrid[1] * c.ProcGrid[2]; prod != p {
		// After a rank failure the survivors rebuild the solver on a
		// shrunken communicator while keeping the original box (and so
		// the original ProcGrid, which checkpoint metadata is validated
		// against). That is consistent exactly when the ownership map
		// leaves every rank outside the communicator empty.
		if c.Ownership == nil || prod < p {
			return fmt.Errorf("solver: proc grid %v does not tile %d ranks", c.ProcGrid, p)
		}
		for q := p; q < prod; q++ {
			if c.Ownership.Count(q) > 0 {
				return fmt.Errorf("solver: proc grid %v does not tile %d ranks (rank %d outside the communicator owns %d elements)",
					c.ProcGrid, p, q, c.Ownership.Count(q))
			}
		}
	}
	for d := 0; d < 3; d++ {
		if c.ElemGrid[d]%c.ProcGrid[d] != 0 {
			return fmt.Errorf("solver: elem grid %v not divisible by proc grid %v", c.ElemGrid, c.ProcGrid)
		}
	}
	if c.CFL <= 0 {
		return fmt.Errorf("solver: CFL must be positive, got %g", c.CFL)
	}
	if c.Variant != sem.Basic && c.Variant != sem.Optimized {
		return fmt.Errorf("solver: unknown kernel variant %v", c.Variant)
	}
	for gid, m := range c.HotElems {
		if m <= 0 {
			return fmt.Errorf("solver: hot element %d has non-positive multiplier %g", gid, m)
		}
	}
	if c.GSTopo != nil {
		// All ranks or none: gs_setup discovery is collective, so a rank
		// skipping it while another runs it would deadlock the setup.
		if len(c.GSTopo) < p {
			return fmt.Errorf("solver: GSTopo covers %d ranks, communicator has %d", len(c.GSTopo), p)
		}
		for q := 0; q < p; q++ {
			if c.GSTopo[q] == nil {
				return fmt.Errorf("solver: GSTopo entry for rank %d is nil (table must cover all ranks or none)", q)
			}
		}
	}
	return nil
}

// normalize fills defaulted fields.
func (c *Config) normalize() {
	if c.CFL == 0 {
		c.CFL = 0.3
	}
	if c.TuneTrials == 0 {
		c.TuneTrials = 3
	}
	if c.Machine.Name == "" {
		c.Machine = hw.Generic
	}
	if c.FilterCutoff > 0 && c.FilterStrength == 0 {
		c.FilterStrength = 0.05
	}
	if c.Pr == 0 {
		c.Pr = 0.72
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
}

// CommOptions returns the comm.Options matching the configuration (grid
// and periodicity for Cartesian helpers and hop-distance modeling).
func (c Config) CommOptions(model netmodel.Model) comm.Options {
	return comm.Options{Model: model, Grid: c.ProcGrid, Periodic: c.Periodic}
}

// Mesh builds the global box description.
func (c Config) Mesh() (*mesh.Box, error) {
	return mesh.NewBox(c.ProcGrid, c.ElemGrid, c.N, c.Periodic)
}
