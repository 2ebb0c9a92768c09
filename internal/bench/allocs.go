package bench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/gs"
	"repro/internal/report"
)

// AllocsRecord is one exchange method's steady-state allocation rate.
type AllocsRecord struct {
	Method string
	PerOp  float64
}

// AllocsGuard measures steady-state heap allocations per gather-scatter
// exchange for every method — in place, out of place and split-phase
// (Pending), a third of the operations each — the zero-alloc acceptance
// bar of the gs package, runnable outside `go test` so benchdiff can
// track it. GC is pinned during the measurement so sync.Pool contents are
// stable; the residual count is a few bookkeeping allocations from the
// fence barriers, far below one per op.
func AllocsGuard() ([]AllocsRecord, error) {
	const p = 8
	const opsPerRank = 21 // seven rounds of the three forms
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	benchIDs := func(r, p, blk, overlap int) []int64 {
		ids := make([]int64, blk)
		ring := int64(p * (blk - overlap))
		base := int64(r * (blk - overlap))
		for i := range ids {
			ids[i] = (base + int64(i)) % ring
		}
		return ids
	}

	var out []AllocsRecord
	for _, m := range []gs.Method{gs.Pairwise, gs.CrystalRouter, gs.AllReduce} {
		var mallocs uint64
		_, err := comm.RunSimple(p, func(r *comm.Rank) error {
			g := gs.Setup(r, benchIDs(r.ID(), p, 512, 32))
			vals := make([]float64, 512)
			for i := range vals {
				vals[i] = float64(i%7) + 1
			}
			g.SetMethod(m)
			out := make([]float64, len(vals))
			fields, outs := [][]float64{vals}, [][]float64{out}
			pend := g.NewPending()
			ops := func() {
				g.OpWith(vals, comm.OpSum, m)
				g.OpTo(out, vals, comm.OpSum)
				pend.Begin(outs, fields, comm.OpSum)
				pend.Finish()
			}
			for w := 0; w < 3; w++ {
				ops()
			}
			r.Barrier()
			var m0, m1 runtime.MemStats
			if r.ID() == 0 {
				runtime.ReadMemStats(&m0)
			}
			r.Barrier()
			for i := 0; i < opsPerRank/3; i++ {
				ops()
			}
			r.Barrier()
			if r.ID() == 0 {
				runtime.ReadMemStats(&m1)
				atomic.StoreUint64(&mallocs, m1.Mallocs-m0.Mallocs)
			}
			r.Barrier()
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("allocs guard (%v): %w", m, err)
		}
		out = append(out, AllocsRecord{
			Method: m.String(),
			PerOp:  float64(mallocs) / float64(p*opsPerRank),
		})
	}
	return out, nil
}

// AllocsResults converts guard records into the unified schema. The
// rate is not bit-deterministic (scheduling can shift a pool refill),
// so the metric carries its own absolute bar instead: anything under
// one allocation per op is steady-state clean.
func AllocsResults(recs []AllocsRecord) []report.BenchResult {
	var out []report.BenchResult
	for _, r := range recs {
		out = append(out, report.BenchResult{
			Suite:    "allocs",
			Scenario: "gs/" + r.Method,
			Metrics: []report.Metric{
				{Name: "allocs_per_op", Value: r.PerOp, Unit: "allocs/op", LessIsBetter: true},
			},
		})
	}
	return out
}
