package sem

// The fused gradient kernel: dudr, duds, and dudt of one element in a
// single pass over its planes, instead of three sweeps that each re-read
// all N^3 points of u from memory. Orders with a generated
// specialization (N in [4, 16], see grad3_gen.go) read each source plane
// once and produce all three derivative contributions from it while it
// is hot in cache; other orders run the three Deriv(Optimized) kernels,
// which compute the same thing with more memory traffic.
//
// Bit-exactness contract: Grad3Fused is bit-identical to three
// Deriv(dir, Optimized, ...) sweeps at every order — the generated
// kernels are built from the same per-plane loop bodies — and the test
// suite pins this.

// Grad3Fused computes all three reference-space derivatives of u for
// nel elements in one pass per element. The returned operation count
// equals the sum of the three per-direction counts.
func Grad3Fused(ref *Ref1D, u, ur, us, ut []float64, nel int) OpCount {
	return Grad3FusedPool(nil, ref, u, ur, us, ut, nel)
}

// grad3Elems runs one generated fused kernel over elements [lo, hi).
func grad3Elems(fused func(d, u, ur, us, ut []float64), d []float64, n3 int, u, ur, us, ut []float64, lo, hi int) {
	for e := lo; e < hi; e++ {
		fused(d, u[e*n3:(e+1)*n3], ur[e*n3:(e+1)*n3], us[e*n3:(e+1)*n3], ut[e*n3:(e+1)*n3])
	}
}
