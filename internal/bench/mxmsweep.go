package bench

import (
	"math/rand"
	"time"

	"repro/internal/sem"
)

// The small-matrix mxm sweep: every MxM variant across the reduction
// sizes the spectral-element kernels produce (k = N is the 1D operator
// size), in the derivative kernel's dominant shape m = N^2, n = N,
// batched over elements the way the solver calls it. This is the
// measurement behind `kernelbench -mxm`; it is wall clock, so it prints
// a table and gates nothing.

// MxMSweepOptions parameterize the sweep.
type MxMSweepOptions struct {
	// Ks lists the reduction sizes to measure (nil = 4..16, the
	// generated kernels' practical range).
	Ks []int
	// Nel is the number of elements per batched call (0 = 32).
	Nel int
	// FlopBudget is the approximate floating-point work per measured
	// (k, variant) cell; the repetition count is derived from it so
	// small and large k measure for comparable wall time (0 = 2e8).
	FlopBudget float64
	// Each, when non-nil, receives every record as it is measured.
	Each func(MxMRecord)
}

// MxMRecord is one (k, variant) measurement.
type MxMRecord struct {
	K, M, N int
	Nel     int
	Steps   int
	Variant string
	// Effective is the kernel that actually ran (sem.MxMEffective):
	// variants outside their specialization range report their
	// fallback here instead of silently crediting the named variant.
	Effective string
	Wall      float64
	Gflops    float64
	// SpeedupVsFU is this variant's Gflop/s over MxMFusedUnroll's at
	// the same shape — the transformation-set baseline CMT-bone
	// inherits from Nek5000.
	SpeedupVsFU float64
}

// MxMSweep measures every MxM variant at each k in the dominant
// derivative shape (m = k*k, n = k) and returns one record per cell.
func MxMSweep(opts MxMSweepOptions) []MxMRecord {
	ks := opts.Ks
	if ks == nil {
		for k := 4; k <= 16; k++ {
			ks = append(ks, k)
		}
	}
	nel := opts.Nel
	if nel == 0 {
		nel = 32
	}
	budget := opts.FlopBudget
	if budget == 0 {
		budget = 2e8
	}

	var records []MxMRecord
	for _, k := range ks {
		m, n := k*k, k
		steps := int(budget / float64(2*m*k*n*nel))
		if steps < 1 {
			steps = 1
		}
		rng := rand.New(rand.NewSource(1))
		a := make([]float64, nel*m*k)
		for i := range a {
			a[i] = rng.Float64()
		}
		b := make([]float64, k*n)
		for i := range b {
			b[i] = rng.Float64()
		}
		c := make([]float64, nel*m*n)

		kRecs := make([]MxMRecord, 0, len(sem.MxMVariants))
		var fuGflops float64
		for _, v := range sem.MxMVariants {
			sem.MxMBatch(v, a, m, b, k, c, n, nel) // warm: resolve + fault pages
			start := time.Now()
			var ops sem.OpCount
			for s := 0; s < steps; s++ {
				ops = ops.Plus(sem.MxMBatch(v, a, m, b, k, c, n, nel))
			}
			wall := time.Since(start).Seconds()
			g := float64(ops.Flops()) / wall / 1e9
			if v == sem.MxMFusedUnroll {
				fuGflops = g
			}
			kRecs = append(kRecs, MxMRecord{
				K: k, M: m, N: n, Nel: nel, Steps: steps,
				Variant: v.String(), Effective: sem.MxMEffective(v, k),
				Wall: wall, Gflops: g,
			})
		}
		for i := range kRecs {
			if fuGflops > 0 {
				kRecs[i].SpeedupVsFU = kRecs[i].Gflops / fuGflops
			}
			if opts.Each != nil {
				opts.Each(kRecs[i])
			}
		}
		records = append(records, kRecs...)
	}
	return records
}
