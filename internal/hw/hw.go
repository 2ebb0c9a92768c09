// Package hw is an analytic processor model standing in for the PAPI
// hardware counters of the paper's Figures 5-6. The kernels in
// internal/sem report exact structural operation counts (multiplies,
// adds, loads, stores); this package converts them into modeled total
// instruction and cycle counts for a named machine, given per-kernel
// traits describing how well the kernel's loop structure vectorizes and
// how its access pattern behaves in cache.
//
// The model is deliberately simple — the paper's experiment compares loop
// *structures*, and the quantities that differ between structures are the
// vectorized fraction (unrolling and fusion enable SIMD, shrinking the
// instruction count) and the cache-miss rate (stride-N^2 access thrashes
// L1). Those are exactly the model's inputs.
package hw

import "fmt"

// Machine describes the modeled processor.
type Machine struct {
	Name    string
	ClockHz float64
	// IPC is the sustained instructions retired per cycle on in-cache
	// code.
	IPC float64
	// VecWidth is the number of float64 lanes per SIMD instruction.
	VecWidth int
	// MissPenaltyCycles is the stall charged per modeled cache miss.
	MissPenaltyCycles float64
}

// Machine presets. Opteron6378 is the platform of the paper's Figure 5
// (AMD Opteron 6378, 2.4GHz, 256-bit FMA units => 4 doubles per vector);
// I52500 is the Intel i5-2500 of Figure 4.
var (
	Opteron6378 = Machine{Name: "opteron-6378", ClockHz: 2.4e9, IPC: 1.8, VecWidth: 4, MissPenaltyCycles: 40}
	I52500      = Machine{Name: "i5-2500", ClockHz: 3.3e9, IPC: 2.0, VecWidth: 4, MissPenaltyCycles: 35}
	Generic     = Machine{Name: "generic", ClockHz: 2.0e9, IPC: 1.5, VecWidth: 2, MissPenaltyCycles: 50}
)

// Traits describe how one kernel's loop structure maps onto hardware.
type Traits struct {
	// VecFrac is the fraction of floating-point work issued as SIMD.
	VecFrac float64
	// OverheadPerFlop is the count of non-FP instructions (address
	// arithmetic, branches, spills) per floating-point operation; loop
	// transformations shrink it.
	OverheadPerFlop float64
	// MissRate is the fraction of loads missing L1 — near zero for
	// unit-stride streaming, large for stride-N^2 walks.
	MissRate float64
}

// Kernel traits for the derivative-kernel study (paper Section V). The
// rationale per kernel:
//
//   - dudt optimized streams whole planes with unit stride: highly
//     vectorized, tiny overhead, negligible misses.
//   - dudt basic walks stride N^2: scalar, heavy overhead, severe misses.
//   - dudr is contiguous in both variants (the reduction index is the
//     fastest axis), so the optimized version gains only unroll overhead
//     reduction — the paper's 1.03x.
//   - duds has stride-N access in both variants; fusion is impossible,
//     so optimization changes essentially nothing — the paper's "no
//     noticeable improvement".
var (
	DudtOptimized = Traits{VecFrac: 0.85, OverheadPerFlop: 0.20, MissRate: 0.020}
	DudtBasic     = Traits{VecFrac: 0.00, OverheadPerFlop: 0.65, MissRate: 0.045}
	DudrOptimized = Traits{VecFrac: 0.30, OverheadPerFlop: 0.45, MissRate: 0.030}
	DudrBasic     = Traits{VecFrac: 0.25, OverheadPerFlop: 0.50, MissRate: 0.030}
	DudsOptimized = Traits{VecFrac: 0.10, OverheadPerFlop: 0.55, MissRate: 0.030}
	DudsBasic     = Traits{VecFrac: 0.08, OverheadPerFlop: 0.58, MissRate: 0.030}
)

// DerivTraits returns the traits of the derivative kernel along reference
// direction dir (0, 1, 2 = r, s, t; sem.Direction's values) with or
// without the loop transformations — the one place the (direction,
// variant) pair is mapped onto the table above.
func DerivTraits(dir int, optimized bool) Traits {
	table := [3][2]Traits{
		{DudrBasic, DudrOptimized},
		{DudsBasic, DudsOptimized},
		{DudtBasic, DudtOptimized},
	}
	if optimized {
		return table[dir][1]
	}
	return table[dir][0]
}

// Ops mirrors sem.OpCount without importing it, keeping hw free of
// package dependencies; use FromCounts to convert.
type Ops struct {
	Mul, Add, Load, Store int64
}

// Flops returns total floating-point operations.
func (o Ops) Flops() int64 { return o.Mul + o.Add }

// Estimate is the modeled cost of running a kernel once.
type Estimate struct {
	Instructions int64
	Cycles       int64
	Seconds      float64
}

// String implements fmt.Stringer.
func (e Estimate) String() string {
	return fmt.Sprintf("instr=%d cycles=%d time=%.3es", e.Instructions, e.Cycles, e.Seconds)
}

// Model computes the modeled instruction and cycle totals for ops with
// the given traits on machine m.
func Model(m Machine, ops Ops, tr Traits) Estimate {
	flops := float64(ops.Flops())
	mem := float64(ops.Load + ops.Store)
	// SIMD shrinks both arithmetic and memory instruction counts for the
	// vectorized fraction.
	shrink := (1 - tr.VecFrac) + tr.VecFrac/float64(m.VecWidth)
	instr := flops*shrink + mem*shrink*0.5 + flops*tr.OverheadPerFlop
	misses := float64(ops.Load) * tr.MissRate
	cycles := instr/m.IPC + misses*m.MissPenaltyCycles
	return Estimate{
		Instructions: int64(instr),
		Cycles:       int64(cycles),
		Seconds:      cycles / m.ClockHz,
	}
}

// Time returns only the modeled wall seconds, the form used to advance a
// rank's virtual clock for behavioral emulation.
func Time(m Machine, ops Ops, tr Traits) float64 {
	return Model(m, ops, tr).Seconds
}
