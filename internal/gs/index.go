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

// buildIndex splits the discovery table t (validated) into the three
// classes and returns, per table slot, the remote slot it became (-1 for
// a local one).
func buildIndex(t *Topology) (index, []int32) {
	var np, nl, nlIdx, nr, nrIdx int
	for s, grp := range t.Groups {
		switch {
		case t.SharedMask[s]:
			nr, nrIdx = nr+1, nrIdx+len(grp)
		case len(grp) == 2:
			np++
		default:
			nl, nlIdx = nl+1, nlIdx+len(grp)
		}
	}
	ix := index{
		pairA: make([]int32, 0, np), pairB: make([]int32, 0, np), pairID: make([]int64, 0, np),
		locOff: make([]int32, 1, nl+1), locIdx: make([]int32, 0, nlIdx), locID: make([]int64, 0, nl),
		remOff: make([]int32, 1, nr+1), remIdx: make([]int32, 0, nrIdx), remID: make([]int64, 0, nr),
	}
	remOf := make([]int32, len(t.IDs))
	for s, id := range t.IDs {
		grp := t.Groups[s]
		remOf[s] = -1
		switch {
		case t.SharedMask[s]:
			remOf[s] = int32(len(ix.remID))
			ix.remID = append(ix.remID, id)
			for _, i := range grp {
				ix.remIdx = append(ix.remIdx, int32(i))
			}
			ix.remOff = append(ix.remOff, int32(len(ix.remIdx)))
		case len(grp) == 2:
			ix.pairA = append(ix.pairA, int32(grp[0]))
			ix.pairB = append(ix.pairB, int32(grp[1]))
			ix.pairID = append(ix.pairID, id)
		default:
			ix.locID = append(ix.locID, id)
			for _, i := range grp {
				ix.locIdx = append(ix.locIdx, int32(i))
			}
			ix.locOff = append(ix.locOff, int32(len(ix.locIdx)))
		}
	}
	return ix, remOf
}

// local combines every local-only id's occurrences in src under op and
// writes the result to each of them in dst (dst may be src). scratch
// holds one value per local group.
func (ix *index) local(dst, src, scratch []float64, op comm.ReduceOp) {
	a, b := ix.pairA, ix.pairB[:len(ix.pairA)]
	if op == comm.OpSum {
		for k, ia := range a {
			ib := b[k]
			v := src[ia] + src[ib]
			dst[ia], dst[ib] = v, v
		}
	} else {
		f := combiner(op)
		for k, ia := range a {
			ib := b[k]
			v := f(src[ia], src[ib])
			dst[ia], dst[ib] = v, v
		}
	}
	if len(ix.locID) > 0 {
		gather(scratch, src, ix.locOff, ix.locIdx, op)
		scatter(dst, scratch, ix.locOff, ix.locIdx)
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
