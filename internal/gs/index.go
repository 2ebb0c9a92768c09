package gs

import (
	"fmt"
	"math"

	"repro/internal/comm"
)

// index is a handle's local map: the active id table (ids shared with
// another rank or held more than once here), split once at setup by what
// an id's occurrences need, as flat int32 lists in ascending id order —
// gslib's layout, one loop per class instead of one slice per id.
//
// A local pair or group is complete on this rank: it is combined and
// written back in one pass and never staged. Only a remotely-shared slot
// has a partial that a message must see, so only those are gathered into
// the exchange's partial vector (indexed by remote slot) and scattered
// from it afterwards.
type index struct {
	// Ids held exactly twice here and nowhere else — every interior DG
	// face point: occurrences pairA[k] and pairB[k], in vector order.
	pairA, pairB []int32
	pairID       []int64
	// Local-only ids of any other multiplicity (Nekbone's edges and
	// vertices), CSR: group j is locIdx[locOff[j]:locOff[j+1]].
	locOff, locIdx []int32
	locID          []int64
	// Remotely-shared ids, CSR: slot m's local occurrences are
	// remIdx[remOff[m]:remOff[m+1]].
	remOff, remIdx []int32
	remID          []int64
}

// indexSize counts what each class of an index holds, so newIndex can
// size the lists exactly.
type indexSize struct{ pairs, loc, locIdx, rem, remIdx int }

// add counts one table entry of n local occurrences.
func (z *indexSize) add(shared bool, n int) {
	switch {
	case shared:
		z.rem, z.remIdx = z.rem+1, z.remIdx+n
	case n == 2:
		z.pairs++
	default:
		z.loc, z.locIdx = z.loc+1, z.locIdx+n
	}
}

// newIndex returns an empty index with room for exactly z.
func newIndex(z indexSize) index {
	return index{
		pairA: make([]int32, 0, z.pairs), pairB: make([]int32, 0, z.pairs), pairID: make([]int64, 0, z.pairs),
		locOff: make([]int32, 1, z.loc+1), locIdx: make([]int32, 0, z.locIdx), locID: make([]int64, 0, z.loc),
		remOff: make([]int32, 1, z.rem+1), remIdx: make([]int32, 0, z.remIdx), remID: make([]int64, 0, z.rem),
	}
}

// addGroup appends one table entry — id, whether another rank holds it,
// and its local occurrences in vector order — to its class, in
// ascending id order, and returns the remote slot it became (-1 for a
// local one).
func addGroup[T int | int32](ix *index, id int64, shared bool, occ []T) int32 {
	switch {
	case shared:
		ix.remID = append(ix.remID, id)
		for _, i := range occ {
			ix.remIdx = append(ix.remIdx, int32(i))
		}
		ix.remOff = append(ix.remOff, int32(len(ix.remIdx)))
		return int32(len(ix.remID) - 1)
	case len(occ) == 2:
		ix.pairA = append(ix.pairA, int32(occ[0]))
		ix.pairB = append(ix.pairB, int32(occ[1]))
		ix.pairID = append(ix.pairID, id)
	default:
		ix.locID = append(ix.locID, id)
		for _, i := range occ {
			ix.locIdx = append(ix.locIdx, int32(i))
		}
		ix.locOff = append(ix.locOff, int32(len(ix.locIdx)))
	}
	return -1
}

// buildIndex splits the discovery table t (validated) into the three
// classes and returns, per table slot, the remote slot it became (-1 for
// a local one).
func buildIndex(t *Topology) (index, []int32) {
	var size indexSize
	for s, grp := range t.Groups {
		size.add(t.SharedMask[s], len(grp))
	}
	ix := newIndex(size)
	remOf := make([]int32, len(t.IDs))
	for s, id := range t.IDs {
		remOf[s] = addGroup(&ix, id, t.SharedMask[s], t.Groups[s])
	}
	return ix, remOf
}

// local combines every local-only id's occurrences in v under op and
// writes the result back to each of them. scratch holds one value per
// local group.
func (ix *index) local(v, scratch []float64, op comm.ReduceOp) {
	a, b := ix.pairA, ix.pairB[:len(ix.pairA)]
	if op == comm.OpSum {
		for k, ia := range a {
			ib := b[k]
			s := v[ia] + v[ib]
			v[ia], v[ib] = s, s
		}
	} else {
		f := combiner(op)
		for k, ia := range a {
			ib := b[k]
			s := f(v[ia], v[ib])
			v[ia], v[ib] = s, s
		}
	}
	if len(ix.locID) > 0 {
		gather(scratch, v, ix.locOff, ix.locIdx, op)
		scatter(v, scratch, ix.locOff, ix.locIdx)
	}
}

// gather folds each CSR group's occurrences in src under op, first
// occurrence first, into out[group]. As many occurrences as groups means
// one each — every remote slot of a DG face exchange — and no folding.
func gather(out, src []float64, off, idx []int32, op comm.ReduceOp) {
	if len(idx) == len(out) {
		for j, i := range idx {
			out[j] = src[i]
		}
		return
	}
	if op == comm.OpSum {
		for j := range out {
			grp := idx[off[j]:off[j+1]]
			acc := src[grp[0]]
			for _, i := range grp[1:] {
				acc += src[i]
			}
			out[j] = acc
		}
		return
	}
	f := combiner(op)
	for j := range out {
		grp := idx[off[j]:off[j+1]]
		acc := src[grp[0]]
		for _, i := range grp[1:] {
			acc = f(acc, src[i])
		}
		out[j] = acc
	}
}

// scatter writes vals[group] to every occurrence of each CSR group.
func scatter(dst, vals []float64, off, idx []int32) {
	if len(idx) == len(vals) {
		for j, i := range idx {
			dst[i] = vals[j]
		}
		return
	}
	for j, v := range vals {
		for _, i := range idx[off[j]:off[j+1]] {
			dst[i] = v
		}
	}
}

// accumulate combines a neighbor's packed message (k values per shared
// slot, slot-major) into the field-major partials: partial[fi*nr+slot].
func accumulate(partial []float64, nr int, slots []int32, data []float64, k int, op comm.ReduceOp) {
	if op == comm.OpSum && k == 1 {
		for j, s := range slots {
			partial[s] += data[j]
		}
		return
	}
	if op == comm.OpSum {
		for j, s := range slots {
			for fi := 0; fi < k; fi++ {
				partial[fi*nr+int(s)] += data[j*k+fi]
			}
		}
		return
	}
	f := combiner(op)
	for j, s := range slots {
		for fi := 0; fi < k; fi++ {
			partial[fi*nr+int(s)] = f(partial[fi*nr+int(s)], data[j*k+fi])
		}
	}
}

// combiner returns op's two-operand combine. Callers fetch it once per
// kernel call, outside the loops; OpSum has its own loop bodies.
func combiner(op comm.ReduceOp) func(a, b float64) float64 {
	switch op {
	case comm.OpSum:
		return func(a, b float64) float64 { return a + b }
	case comm.OpProd:
		return func(a, b float64) float64 { return a * b }
	case comm.OpMin:
		return math.Min
	case comm.OpMax:
		return math.Max
	}
	panic(fmt.Sprintf("gs: unknown op %v", op))
}

// identity returns op's neutral element, used to pad the big vector.
func identity(op comm.ReduceOp) float64 {
	switch op {
	case comm.OpSum:
		return 0
	case comm.OpProd:
		return 1
	case comm.OpMin:
		return math.Inf(1)
	case comm.OpMax:
		return math.Inf(-1)
	}
	panic(fmt.Sprintf("gs: unknown op %v", op))
}
