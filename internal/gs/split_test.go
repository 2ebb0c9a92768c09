package gs

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/netmodel"
)

// TestSplitMatchesBlocking checks the split-phase Begin/Finish pair is
// bit-identical to the blocking OpFields under every method and op —
// including the crystal-router and all_reduce fallbacks — while honoring
// the caller contract the solver relies on: entries whose ids are not
// remotely shared are written only *after* Begin (the interior phase).
func TestSplitMatchesBlocking(t *testing.T) {
	const p = 4
	for _, m := range []Method{Pairwise, CrystalRouter, AllReduce} {
		for _, op := range []comm.ReduceOp{comm.OpSum, comm.OpMax} {
			_, err := comm.RunSimple(p, func(r *comm.Rank) error {
				ids := benchIDs(r.ID(), p, 64, 8)
				g := Setup(r, ids)
				g.SetMethod(m)

				final := make([]float64, len(ids))
				for i := range final {
					final[i] = float64(r.ID()*1000+i)*0.37 + 1
				}

				// Blocking reference.
				want := make([][]float64, 3)
				for fi := range want {
					want[fi] = make([]float64, len(final))
					for i := range final {
						want[fi][i] = final[i] * float64(fi+1)
					}
				}
				g.OpFields(want, op, m)

				// Split run: remotely-shared entries are ready at Begin,
				// everything else is poisoned until the "interior" phase
				// between Begin and Finish.
				shared := remoteShared(g.Topology())
				got := make([][]float64, 3)
				for fi := range got {
					got[fi] = make([]float64, len(final))
					for i := range final {
						if shared[i] {
							got[fi][i] = final[i] * float64(fi+1)
						} else {
							got[fi][i] = math.NaN()
						}
					}
				}
				pend := g.NewPending()
				pend.Begin(got, op)
				for fi := range got {
					for i := range final {
						if !shared[i] {
							got[fi][i] = final[i] * float64(fi+1)
						}
					}
				}
				pend.Finish()

				for fi := range got {
					for i := range final {
						if math.Float64bits(got[fi][i]) != math.Float64bits(want[fi][i]) {
							t.Errorf("%v/%v rank %d field %d idx %d: split %v, blocking %v",
								m, op, r.ID(), fi, i, got[fi][i], want[fi][i])
							return nil
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSplitReuse reuses one Pending across repeated exchanges (the
// steady-state solver pattern) and checks each round stays bit-identical
// to a blocking exchange on the same values.
func TestSplitReuse(t *testing.T) {
	const p = 4
	_, err := comm.RunSimple(p, func(r *comm.Rank) error {
		g := Setup(r, benchIDs(r.ID(), p, 64, 8))
		pend := g.NewPending()
		for round := 0; round < 5; round++ {
			vals := make([]float64, 64)
			for i := range vals {
				vals[i] = float64((r.ID()+1)*(i+1)*(round+1)) * 0.1
			}
			want := append([]float64(nil), vals...)
			g.OpFields([][]float64{want}, comm.OpSum, Pairwise)
			f := [][]float64{vals}
			pend.Begin(f, comm.OpSum)
			pend.Finish()
			for i := range vals {
				if math.Float64bits(vals[i]) != math.Float64bits(want[i]) {
					t.Errorf("round %d rank %d idx %d: split %v, blocking %v",
						round, r.ID(), i, vals[i], want[i])
					return nil
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitOverlapAccounting runs compute on the virtual clock between
// Begin and Finish under a latency-heavy model and checks the hidden
// communication time is reported: positive, and no larger than either
// the compute phase or the full exchange could hide.
func TestSplitOverlapAccounting(t *testing.T) {
	const p = 4
	const computeDt = 1e-4
	stats, err := comm.Run(p, comm.Options{Model: netmodel.GigE}, func(r *comm.Rank) error {
		g := Setup(r, benchIDs(r.ID(), p, 512, 64))
		vals := make([]float64, 512)
		for i := range vals {
			vals[i] = float64(i + r.ID())
		}
		pend := g.NewPending()
		for step := 0; step < 3; step++ {
			f := [][]float64{vals}
			pend.Begin(f, comm.OpSum)
			r.Clock().Advance(computeDt) // the overlapped interior phase
			pend.Finish()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	hidden := stats.TotalOverlapHidden()
	if hidden <= 0 {
		t.Fatalf("overlap hidden = %v, want > 0", hidden)
	}
	if max := 3 * computeDt * float64(p); hidden > max {
		t.Fatalf("overlap hidden = %v exceeds total overlapped compute %v", hidden, max)
	}
}

func BenchmarkGSAllocSplitFields(b *testing.B) {
	const k = 5 // the solver's five conserved variables
	benchExchange(b, 8, func(b *testing.B, r *comm.Rank, g *GS, vals []float64) {
		fields := make([][]float64, k)
		for fi := range fields {
			fields[fi] = append([]float64(nil), vals...)
		}
		pend := g.NewPending()
		steadyLoop(b, r, func() {
			pend.Begin(fields, comm.OpSum)
			pend.Finish()
		})
	})
}

// remoteShared marks the vector indices whose id another rank holds: the
// groups of every slot the topology shares with a neighbor.
func remoteShared(t *Topology) []bool {
	out := make([]bool, t.N)
	for _, nb := range t.Neighbors {
		for _, slot := range nb.Slots {
			for _, i := range t.Groups[slot] {
				out[i] = true
			}
		}
	}
	return out
}
