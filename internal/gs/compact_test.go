package gs

import (
	"math"
	"testing"

	"repro/internal/comm"
)

// compactLayout is an exchange-only id vector of length n for rank q: every
// third entry is masked, every third holds an id no other rank holds,
// and every third an id each rank holds once. Its active occurrences
// move, in reverse order, to a compact vector of their count.
func compactLayout(q, n int) (ids []int64, at func(i int32) int32, m int) {
	ids = make([]int64, n)
	pos := map[int32]int32{}
	for i := range ids {
		switch i % 3 {
		case 0:
			ids[i] = -1
		case 1:
			ids[i] = int64(1000*(q+1) + i)
		default:
			ids[i] = int64(i)
			pos[int32(i)] = int32(len(pos))
		}
	}
	m = len(pos)
	return ids, func(i int32) int32 {
		if k, ok := pos[i]; ok {
			return int32(m) - 1 - k
		}
		return -1
	}, m
}

// TestCompact holds a compacted handle to the handle it came from: every
// method and entry point (Op, OpFields, Pending) gives the same bits at
// the moved positions, a vector of the wide length is still exchanged at
// the wide indices, and the recorded topology rebuilds an equal handle.
func TestCompact(t *testing.T) {
	const p, n = 3, 40
	_, err := comm.RunSimple(p, func(r *comm.Rank) error {
		ids, at, m := compactLayout(r.ID(), n)
		wide, g := Setup(r, ids), Setup(r, ids)
		if err := g.Compact(m, at); err != nil {
			return err
		}
		if topo := g.Topology(); topo.N != m {
			t.Errorf("rank %d: compacted topology has length %d, want %d", r.ID(), topo.N, m)
		}
		rebuilt, err := SetupFromTopology(r, g.Topology())
		if err != nil {
			return err
		}
		vals := func(seed int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = float64((i*7+r.ID()*13+seed)%17) + 0.25
			}
			return v
		}
		compact := func(v []float64) []float64 {
			c := make([]float64, m)
			for i, x := range v {
				if k := at(int32(i)); k >= 0 {
					c[k] = x
				}
			}
			return c
		}
		for _, meth := range Methods {
			for _, h := range []*GS{g, rebuilt} {
				want, v := vals(int(meth)), vals(int(meth))
				wide.OpWith(want, comm.OpSum, meth)
				one, two, split := compact(v), [][]float64{compact(v), compact(v)}, [][]float64{compact(v)}
				h.OpWith(one, comm.OpSum, meth)
				h.OpFields(two, comm.OpSum, meth)
				h.SetMethod(meth)
				pend := h.NewPending()
				pend.Begin(split, comm.OpSum)
				pend.Finish()
				for i, w := range want {
					k := at(int32(i))
					if k < 0 {
						continue
					}
					for _, got := range []float64{one[k], two[0][k], two[1][k], split[0][k]} {
						if math.Float64bits(got) != math.Float64bits(w) {
							t.Errorf("rank %d %v: compact position %d = %v, the wide handle's %v", r.ID(), meth, k, got, w)
							return nil
						}
					}
				}
			}
			// The wide vector on the compacted handle.
			want, got := vals(int(meth)), vals(int(meth))
			wide.OpWith(want, comm.OpSum, meth)
			g.OpWith(got, comm.OpSum, meth)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Errorf("rank %d %v: wide entry %d = %v on the compacted handle, %v on the wide one", r.ID(), meth, i, got[i], want[i])
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

// TestCompactRefuses: a handle with a local-only id, or a map that is not
// one to one into [0, n), is left as it was.
func TestCompactRefuses(t *testing.T) {
	_, err := comm.RunSimple(2, func(r *comm.Rank) error {
		local := Setup(r, []int64{int64(100 + r.ID()), int64(100 + r.ID()), 7})
		if err := local.Compact(1, func(int32) int32 { return 0 }); err == nil {
			t.Errorf("rank %d: Compact accepted a handle with a local pair", r.ID())
		}
		ids, at, m := compactLayout(r.ID(), 12)
		g := Setup(r, ids)
		if err := g.Compact(m, func(int32) int32 { return 0 }); err == nil {
			t.Errorf("rank %d: Compact accepted a map onto one position", r.ID())
		}
		if err := g.Compact(m-1, at); err == nil {
			t.Errorf("rank %d: Compact accepted a map out of [0, n)", r.ID())
		}
		if g.n != len(ids) || g.wideIdx != nil {
			t.Errorf("rank %d: a refused Compact changed the handle", r.ID())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
