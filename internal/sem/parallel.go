package sem

import (
	"fmt"

	"repro/internal/pool"
)

// Pool-parallel variants of the element-indexed kernels. Elements are
// independent — every kernel here reads and writes only the N^3 (or
// 6*N^2) block of its own element — so the element range is cut into
// contiguous chunks and fanned out over a worker pool. Chunk boundaries
// never change per-element arithmetic, so results are bit-identical at
// any worker count. The returned operation counts are the same
// structural counts the serial kernels report, computed analytically on
// the caller: modeled time is charged from them on the rank goroutine,
// which is why the pool moves wall time only, never the virtual clock.
//
// Size validation happens up front on the caller goroutine, so misuse
// panics at the call site rather than inside a pool helper.

// forElems runs fn over nel elements, fanned out over p in contiguous
// chunks; a nil or 1-wide pool (or a single element) runs it inline with
// no closure.
func forElems(p *pool.Pool, fn axisFunc, d []float64, n int, u, du []float64, nel int) {
	if p.Workers() == 1 || nel <= 1 {
		fn(d, n, u, du, nel)
		return
	}
	n3 := n * n * n
	p.For(nel, func(lo, hi int) {
		fn(d, n, u[lo*n3:hi*n3], du[lo*n3:hi*n3], hi-lo)
	})
}

// DerivPool is Deriv with the element loop fanned out over p: validated
// and resolved once, then every chunk runs the same kernel.
func DerivPool(p *pool.Pool, dir Direction, v KernelVariant, ref *Ref1D, u, du []float64, nel int) OpCount {
	n := ref.N
	checkAxis("deriv", ref.D, n, u, du, nel)
	fn := derivResolve(dir, v, n)
	forElems(p, fn, ref.D, n, u, du, nel)
	return derivOps(n, nel)
}

// Grad3FusedPool computes all three reference-space derivatives of u for
// nel elements: the three DerivPool(Optimized) sweeps, so it is the same
// kernels and the same bits as every other Deriv caller. The returned
// operation count is the sum of the three per-direction counts.
//
// Despite the name, the directions are not fused into one pass per
// element (Karp et al.'s transformation, which loads u once): with the
// element cache-resident the load saved is cheap, and a one-pass scalar
// kernel measured about 4x slower per point than these three sweeps.
func Grad3FusedPool(p *pool.Pool, ref *Ref1D, u, ur, us, ut []float64, nel int) OpCount {
	ops := DerivPool(p, DirR, Optimized, ref, u, ur, nel)
	ops = ops.Plus(DerivPool(p, DirS, Optimized, ref, u, us, nel))
	return ops.Plus(DerivPool(p, DirT, Optimized, ref, u, ut, nel))
}

// Full2FacePool is Full2Face with the element loop fanned out over p.
func Full2FacePool(p *pool.Pool, n int, u []float64, nel int, faces []float64) OpCount {
	if p.Workers() == 1 || nel <= 1 {
		return Full2Face(n, u, nel, faces)
	}
	n2, n3 := n*n, n*n*n
	if len(u) < nel*n3 || len(faces) < nel*NFaces*n2 {
		panic(fmt.Sprintf("sem: full2face size mismatch (u=%d faces=%d nel=%d n=%d)",
			len(u), len(faces), nel, n))
	}
	p.For(nel, func(lo, hi int) {
		Full2Face(n, u[lo*n3:hi*n3], hi-lo, faces[lo*NFaces*n2:hi*NFaces*n2])
	})
	moved := int64(nel) * NFaces * int64(n2)
	return OpCount{Load: moved, Store: moved}
}

// Face2FullAddPool is Face2FullAdd with the element loop fanned out over
// p. Each element scatter-adds only into its own volume block, so the
// accumulation order within an element — the only order that matters for
// the floating-point result — is unchanged.
func Face2FullAddPool(p *pool.Pool, n int, faces []float64, nel int, u []float64) OpCount {
	if p.Workers() == 1 || nel <= 1 {
		return Face2FullAdd(n, faces, nel, u)
	}
	n2, n3 := n*n, n*n*n
	if len(u) < nel*n3 || len(faces) < nel*NFaces*n2 {
		panic(fmt.Sprintf("sem: face2full size mismatch (u=%d faces=%d nel=%d n=%d)",
			len(u), len(faces), nel, n))
	}
	p.For(nel, func(lo, hi int) {
		Face2FullAdd(n, faces[lo*NFaces*n2:hi*NFaces*n2], hi-lo, u[lo*n3:hi*n3])
	})
	moved := int64(nel) * NFaces * int64(n2)
	return OpCount{Add: moved, Load: 2 * moved, Store: moved}
}

// DealiasBufs holds per-worker fine-mesh and scratch buffers for the
// pool-parallel dealiasing round trip: the serial kernel reuses one
// uf/scratch pair across elements, so the parallel version needs a
// private pair per pool slot.
type DealiasBufs struct {
	uf      [][]float64
	scratch [][]float64
}

// NewDealiasBufs allocates dealiasing buffers for a pool of the given
// worker count (values < 1 mean 1).
func (ref *Ref1D) NewDealiasBufs(slots int) *DealiasBufs {
	if slots < 1 {
		slots = 1
	}
	nf3 := ref.NF * ref.NF * ref.NF
	sl := ref.DealiasScratchLen()
	b := &DealiasBufs{
		uf:      make([][]float64, slots),
		scratch: make([][]float64, slots),
	}
	for i := range b.uf {
		b.uf[i] = make([]float64, nf3)
		b.scratch[i] = make([]float64, sl)
	}
	return b
}

// tensorApplyOps is the structural count TensorApply3 reports for the
// given dimensions, computed without running it: one (n2*n3 x n1)*(n1 x
// m1) product, n3 slab products, and one (m3 x n3)*(n3 x m1*m2) product.
func tensorApplyOps(m1, n1, m2, n2, m3, n3 int) OpCount {
	ops := mxmOps(n2*n3, m1, n1)
	ops = ops.Plus(mxmOps(m2, m1, n2).Times(int64(n3)))
	return ops.Plus(mxmOps(m3, m1*m2, n3))
}

// dealiasElemOps is the structural cost of one element's ToFine +
// FromFine round trip.
func (ref *Ref1D) dealiasElemOps() OpCount {
	n, nf := ref.N, ref.NF
	return tensorApplyOps(nf, n, nf, n, nf, n).Plus(tensorApplyOps(n, nf, n, nf, n, nf))
}

// DealiasRoundTripPool is DealiasRoundTrip with the element loop fanned
// out over p, using per-slot buffers from bufs (which must have been
// built for at least p.Workers() slots).
func (ref *Ref1D) DealiasRoundTripPool(p *pool.Pool, u []float64, nel int, bufs *DealiasBufs) OpCount {
	if p.Workers() == 1 || nel <= 1 {
		if nel > 0 {
			return ref.DealiasRoundTrip(u, nel, bufs.uf[0], bufs.scratch[0])
		}
		return OpCount{}
	}
	if len(bufs.uf) < min(nel, p.Workers()) {
		panic(fmt.Sprintf("sem: dealias bufs have %d slots, pool wants %d",
			len(bufs.uf), min(nel, p.Workers())))
	}
	n3 := ref.N * ref.N * ref.N
	if len(u) < nel*n3 {
		panic(fmt.Sprintf("sem: dealias needs %d values, got %d", nel*n3, len(u)))
	}
	p.ForSlots(nel, func(slot, lo, hi int) {
		uf, scr := bufs.uf[slot], bufs.scratch[slot]
		for e := lo; e < hi; e++ {
			ue := u[e*n3 : (e+1)*n3]
			ref.ToFine(ue, uf, scr)
			ref.FromFine(uf, ue, scr)
		}
	})
	return ref.dealiasElemOps().Times(int64(nel))
}
