package gs

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
)

// Every gs exchange method must produce bit-identical results whether
// the communicator's collectives are flat or hierarchical: the setup
// path adjudicates ownership with an integer allreduce and the
// all_reduce method combines on the dense vector, and both ride the
// two-level node-leader tree when the communicator has a Hierarchy. On a
// power-of-two block layout that tree's combine order matches the flat
// one exactly — this test pins the end-to-end consequence.
func TestHierCommBitIdentical(t *testing.T) {
	const p, perNode, slots = 8, 4, 24
	rng := rand.New(rand.NewSource(11))
	ids := make([][]int64, p)
	values := make([][]float64, p)
	for r := 0; r < p; r++ {
		ids[r] = make([]int64, slots)
		values[r] = make([]float64, slots)
		for i := range ids[r] {
			if rng.Intn(8) == 0 {
				ids[r][i] = -1 // purely local slot
			} else {
				ids[r][i] = int64(rng.Intn(40))
			}
			values[r][i] = rng.NormFloat64()
		}
	}

	run := func(hier bool, op comm.ReduceOp, m Method) [][]float64 {
		t.Helper()
		var opts comm.Options
		if hier {
			opts.Hierarchy = comm.BlockHierarchy(p, perNode)
		}
		out := make([][]float64, p)
		_, err := comm.Run(p, opts, func(r *comm.Rank) error {
			g := Setup(r, ids[r.ID()])
			v := append([]float64(nil), values[r.ID()]...)
			g.OpWith(v, op, m)
			out[r.ID()] = v
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	for _, op := range []comm.ReduceOp{comm.OpSum, comm.OpProd, comm.OpMin, comm.OpMax} {
		for _, m := range Methods {
			flat := run(false, op, m)
			hier := run(true, op, m)
			for r := range flat {
				for i := range flat[r] {
					if math.Float64bits(flat[r][i]) != math.Float64bits(hier[r][i]) {
						t.Fatalf("%s/%s: rank %d slot %d = %v hier, %v flat (not bit-identical)",
							op, m, r, i, hier[r][i], flat[r][i])
					}
				}
			}
		}
	}
}
