package sem

import "fmt"

// TensorApply3 applies the separable operator (C (x) B (x) A) to u, where
// u has dimensions (n1, n2, n3) with the first index fastest, A is
// (m1 x n1) applied along the first index, B (m2 x n2) along the second,
// and C (m3 x n3) along the third. The result (m1, m2, m3) is written to
// w. scratch holds both intermediate stages and A transposed; it must
// have at least TensorScratchLen(m1, n1, m2, n2, m3, n3) values. Returns
// the structural operation count of the three products.
//
// This is the workhorse of spectral-element dealiasing: mapping an
// element to a finer reference mesh and back is exactly such a tensor
// product with interpolation matrices.
func TensorApply3(a []float64, m1, n1 int,
	b []float64, m2, n2 int,
	c []float64, m3, n3 int,
	u, w, scratch []float64) OpCount {

	if len(u) < n1*n2*n3 || len(w) < m1*m2*m3 {
		panic(fmt.Sprintf("sem: tensor apply size mismatch: u=%d (need %d), w=%d (need %d)",
			len(u), n1*n2*n3, len(w), m1*m2*m3))
	}
	if need := TensorScratchLen(m1, n1, m2, n2, m3, n3); len(scratch) < need {
		panic(fmt.Sprintf("sem: tensor scratch too small: %d < TensorScratchLen = %d",
			len(scratch), need))
	}
	t1 := scratch[:m1*n2*n3]
	t2 := scratch[m1*n2*n3 : m1*n2*n3+m1*m2*n3]
	at := scratch[m1*n2*n3+m1*m2*n3:][:n1*m1]

	var ops OpCount
	// Stage 1, along the first index: view u as row-major (n2*n3 x n1)
	// and multiply by A^T, giving t1 as (n2*n3 x m1) — i.e. t1 indexed
	// [a + m1*(j + n2*k)]. A^T is copied into scratch (m1*n1 values,
	// against m1*n1*n2*n3 mul-adds) so the stage is a plain row-major
	// product on the same kernel as the other two. The copy is not part
	// of the returned count.
	for i := 0; i < m1; i++ {
		for l, ail := range a[i*n1 : (i+1)*n1] {
			at[l*m1+i] = ail
		}
	}
	ops = ops.Plus(MxM(MxMSIMD, u, n2*n3, at, n1, t1, m1))
	// Stage 2, along the second index, one k-slab at a time:
	// t2slab(m2 x m1) = B(m2 x n2) * t1slab(n2 x m1).
	for k := 0; k < n3; k++ {
		src := t1[k*m1*n2 : (k+1)*m1*n2]
		dst := t2[k*m1*m2 : (k+1)*m1*m2]
		ops = ops.Plus(MxM(MxMSIMD, b, m2, src, n2, dst, m1))
	}
	// Stage 3, along the third index: w(m3 x m1*m2) = C(m3 x n3) * t2.
	ops = ops.Plus(MxM(MxMSIMD, c, m3, t2, n3, w, m1*m2))
	return ops
}

// TensorScratchLen returns the scratch length TensorApply3 requires: the
// stage-1 and stage-2 intermediates plus A transposed.
func TensorScratchLen(m1, n1, m2, n2, m3, n3 int) int {
	return m1*n2*n3 + m1*m2*n3 + m1*n1
}

// ToFine interpolates one element's N^3 values to the NF^3 fine
// (dealiasing) mesh. uf must hold NF^3 values.
func (ref *Ref1D) ToFine(u, uf, scratch []float64) OpCount {
	n, nf := ref.N, ref.NF
	return TensorApply3(ref.JF, nf, n, ref.JF, nf, n, ref.JF, nf, n, u, uf, scratch)
}

// FromFine maps NF^3 fine-mesh values back to the N^3 element mesh by
// interpolating the fine-mesh data at the coarse nodes (the mini-app's
// proxy for the dealiasing projection). For data that is polynomial of
// degree < NF per direction — in particular anything produced by ToFine —
// the round trip is exact.
func (ref *Ref1D) FromFine(uf, u, scratch []float64) OpCount {
	n, nf := ref.N, ref.NF
	return TensorApply3(ref.JB, n, nf, ref.JB, n, nf, ref.JB, n, nf, uf, u, scratch)
}

// DealiasScratchLen returns the scratch length ToFine/FromFine need.
func (ref *Ref1D) DealiasScratchLen() int {
	n, nf := ref.N, ref.NF
	up := TensorScratchLen(nf, n, nf, n, nf, n)
	down := TensorScratchLen(n, nf, n, nf, n, nf)
	if down > up {
		return down
	}
	return up
}

// DealiasRoundTrip maps every element of u to the fine mesh and back,
// exercising the dealiasing cost path of the spectral element solver
// (uf and scratch are reused across elements; uf must hold NF^3 values).
func (ref *Ref1D) DealiasRoundTrip(u []float64, nel int, uf, scratch []float64) OpCount {
	n3 := ref.N * ref.N * ref.N
	var ops OpCount
	for e := 0; e < nel; e++ {
		ue := u[e*n3 : (e+1)*n3]
		ops = ops.Plus(ref.ToFine(ue, uf, scratch))
		ops = ops.Plus(ref.FromFine(uf, ue, scratch))
	}
	return ops
}
