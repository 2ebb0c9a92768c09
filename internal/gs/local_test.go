package gs

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/comm"
)

// The oracle for every entry point: a gather-scatter over a map from id
// to its occurrences, nothing shared with the flat index lists under
// test.

// refValues is what the differential data is drawn from: signed powers of
// two — every sum and product of them is exact, so the oracle's fold
// order and each exchange method's agree to the bit — laced with signed
// zeros, infinities and NaN.
var refValues = []float64{0.5, -0.5, 1, -1, 2, -2, 4, -4, 1, 2,
	0, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}

// valuesFor is refValues minus what the all_reduce method does not carry,
// by its design and the comm layer's, not that of the lists under test:
// -0 (ranks that do not hold an id pad the big vector with +0, and
// -0 + +0 is +0) and, for min and max, NaN (comm.Allreduce orders with <
// and >, which drop it).
func valuesFor(op comm.ReduceOp, m Method) []float64 {
	switch {
	case m != AllReduce:
		return refValues
	case op == comm.OpMin || op == comm.OpMax:
		return refValues[:len(refValues)-2]
	}
	return refValues[:len(refValues)-1]
}

func refCombine(op comm.ReduceOp, a, b float64) float64 {
	switch op {
	case comm.OpSum:
		return a + b
	case comm.OpProd:
		return a * b
	case comm.OpMin:
		return math.Min(a, b)
	case comm.OpMax:
		return math.Max(a, b)
	}
	panic("unknown op")
}

// refGS returns what a gather-scatter of vals (per rank) over ids must
// leave: combined values on every occurrence of an id that occurs more
// than once anywhere, vals elsewhere.
func refGS(ids [][]int64, vals [][]float64, op comm.ReduceOp) [][]float64 {
	type at struct{ r, i int }
	occ := map[int64][]at{}
	for r := range ids {
		for i, id := range ids[r] {
			if id >= 0 {
				occ[id] = append(occ[id], at{r, i})
			}
		}
	}
	out := make([][]float64, len(vals))
	for r := range vals {
		out[r] = append([]float64(nil), vals[r]...)
	}
	for _, where := range occ {
		if len(where) < 2 {
			continue
		}
		acc := vals[where[0].r][where[0].i]
		for _, w := range where[1:] {
			acc = refCombine(op, acc, vals[w.r][w.i])
		}
		for _, w := range where {
			out[w.r][w.i] = acc
		}
	}
	return out
}

// sameBits is bit equality, strict on the sign of zero, with any NaN
// equal to any NaN (payload propagation depends on operand order).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// mixedLayout draws per-rank id vectors mixing every class the index
// lists distinguish: unshared ids, negative ids, local groups of 2, 3 and
// 8, ids held once each by several ranks, and ids both duplicated on a
// rank and held by others.
func mixedLayout(rng *rand.Rand, np int) [][]int64 {
	ids := make([][]int64, np)
	next := int64(0)
	put := func(r, times int, id int64) {
		for t := 0; t < times; t++ {
			ids[r] = append(ids[r], id)
		}
	}
	for r := 0; r < np; r++ {
		for _, size := range []int{1, 1, 2, 2, 2, 3, 8} { // unshared ids, local groups
			for n := 1 + rng.Intn(3); n > 0; n-- {
				put(r, size, next)
				next++
			}
		}
		put(r, 1+rng.Intn(3), -1-int64(rng.Intn(5)))
	}
	for n := 4 + rng.Intn(8); n > 0 && np > 1; n-- {
		// Held by 2..np ranks; on some of them more than once.
		holders := rng.Perm(np)[:2+rng.Intn(np-1)]
		for _, r := range holders {
			put(r, 1+rng.Intn(3)*rng.Intn(2), next)
		}
		next++
	}
	for r := range ids {
		rng.Shuffle(len(ids[r]), func(i, j int) { ids[r][i], ids[r][j] = ids[r][j], ids[r][i] })
	}
	return ids
}

// checkGS runs every entry point of the package on one random layout and
// holds each to the oracle.
func checkGS(t *testing.T, seed int64, np int, op comm.ReduceOp, m Method) {
	t.Helper()
	const k = 3
	rng := rand.New(rand.NewSource(seed))
	ids := mixedLayout(rng, np)
	pool := valuesFor(op, m)
	// Field fi of rank r.
	var vals [k][][]float64
	for fi := range vals {
		vals[fi] = make([][]float64, np)
		for r := range ids {
			vals[fi][r] = make([]float64, len(ids[r]))
			for i := range ids[r] {
				vals[fi][r][i] = pool[rng.Intn(len(pool))]
			}
		}
	}
	var want [k][][]float64
	for fi := range vals {
		want[fi] = refGS(ids, vals[fi], op)
	}

	_, err := comm.RunSimple(np, func(r *comm.Rank) error {
		me := r.ID()
		g := Setup(r, ids[me])
		g.SetMethod(m)
		fresh := func(src *[k][][]float64) [][]float64 {
			out := make([][]float64, k)
			for fi := range out {
				out[fi] = append([]float64(nil), src[fi][me]...)
			}
			return out
		}
		check := func(what string, got [][]float64, want *[k][][]float64) {
			for fi := range got {
				for i := range got[fi] {
					if !sameBits(got[fi][i], want[fi][me][i]) {
						t.Errorf("seed %d np %d %v %v: %s: rank %d field %d index %d (id %d) = %v, want %v",
							seed, np, op, m, what, me, fi, i, ids[me][i], got[fi][i], want[fi][me][i])
						return
					}
				}
			}
		}
		pend := g.NewPending()

		v := fresh(&vals)
		g.OpWith(v[0], op, m)
		check("OpWith", v[:1], &want)

		v = fresh(&vals)
		g.OpFields(v, op, m)
		check("OpFields", v, &want)

		v = fresh(&vals)
		pend.Begin(v, op)
		pend.Finish()
		check("Pending", v, &want)

		// A handle rebuilt from the extracted topology has the same lists.
		g2, err := SetupFromTopology(r, g.Topology())
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(g.ix, g2.ix) || !reflect.DeepEqual(g.neighbors, g2.neighbors) {
			t.Errorf("seed %d np %d rank %d: SetupFromTopology(Topology()) built different index lists", seed, np, me)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

var (
	localOps     = []comm.ReduceOp{comm.OpSum, comm.OpProd, comm.OpMin, comm.OpMax}
	localMethods = []Method{Pairwise, CrystalRouter, AllReduce}
	localNP      = []int{1, 2, 3, 5}
)

// TestGSMatchesMapReference is the differential table: Op, the
// out-of-place form (dst == src included), OpFields and Pending x every
// op x every exchange method x np in {1, 2, 3, 5} on mixed id layouts.
func TestGSMatchesMapReference(t *testing.T) {
	for _, np := range localNP {
		for _, op := range localOps {
			for _, m := range localMethods {
				t.Run(fmt.Sprintf("np=%d/%v/%v", np, op, m), func(t *testing.T) {
					for seed := int64(1); seed <= 3; seed++ {
						checkGS(t, seed, np, op, m)
					}
				})
			}
		}
	}
}

// FuzzGSLocal is the same check on fuzzer-chosen layouts and data.
func FuzzGSLocal(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0))
	f.Add(int64(7), uint8(1), uint8(1), uint8(1))
	f.Add(int64(-3), uint8(2), uint8(2), uint8(2))
	f.Add(int64(42), uint8(3), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, np, op, m uint8) {
		checkGS(t, seed, localNP[int(np)%len(localNP)], localOps[int(op)%len(localOps)],
			localMethods[int(m)%len(localMethods)])
	})
}
