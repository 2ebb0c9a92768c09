package sem

import "fmt"

//go:generate go run ./gen -sem .

// The mxm kernel: C = A * B with A (m x k), B (k x n), C (m x n), all
// row-major. Nek5000 — and therefore CMT-nek and CMT-bone — spends the
// bulk of its time in exactly these small matrix products (N between 5
// and 25), and the paper's Section V studies how loop transformations
// (fusion/reordering and unrolling) change their performance. Each
// variant below corresponds to one point in that study.

// MxMVariant selects a loop structure for the mxm kernel.
type MxMVariant int

// Kernel variants, from untransformed to fully transformed.
const (
	// MxMBasic is the textbook i-j-l triple loop with a dot-product
	// inner loop; B is accessed with stride n, defeating vectorization.
	MxMBasic MxMVariant = iota
	// MxMUnroll is MxMBasic with the inner (reduction) loop unrolled by
	// four, the paper's "loop unroll" transformation alone.
	MxMUnroll
	// MxMFused reorders to i-l-j so the inner loop streams contiguously
	// over rows of B and C (the "loop fusion" transformation: the store
	// loop is fused with the accumulate loop).
	MxMFused
	// MxMFusedUnroll is MxMFused with the inner loop unrolled by four —
	// the transformation set CMT-bone inherits from Nek5000.
	MxMFusedUnroll
	// MxMGenerated uses the go:generate-emitted fully k-unrolled kernels
	// (internal/sem/gen; Nek5000's hand-specialized mxm44 family extended
	// to every practical order) for k in [1, 16], falling back to
	// MxMFusedUnroll otherwise. Bit-identical to MxMBasic.
	MxMGenerated
	// MxMSIMD uses the AVX2 assembly kernel on amd64 hosts with AVX2
	// support (disabled by the semnoasm build tag), falling back to
	// MxMGenerated then MxMFusedUnroll. Bit-identical to MxMBasic: the
	// assembly accumulates in ascending-l order with separate multiply
	// and add (no FMA contraction). It is the kernel production runs
	// (TensorApply3, Deriv/ApplyDir along t, ApplyDir along s); the
	// build and the host's AVX2 support pick what it resolves to.
	MxMSIMD
)

// String implements fmt.Stringer.
func (v MxMVariant) String() string {
	switch v {
	case MxMBasic:
		return "basic"
	case MxMUnroll:
		return "unroll"
	case MxMFused:
		return "fused"
	case MxMFusedUnroll:
		return "fused+unroll"
	case MxMGenerated:
		return "generated"
	case MxMSIMD:
		return "simd"
	}
	return fmt.Sprintf("MxMVariant(%d)", int(v))
}

// MxMVariants lists all kernel variants, for sweeps and ablations.
var MxMVariants = []MxMVariant{
	MxMBasic, MxMUnroll, MxMFused, MxMFusedUnroll,
	MxMGenerated, MxMSIMD,
}

// HasSIMD reports whether the AVX2 assembly backend is active in this
// build on this host.
func HasSIMD() bool {
	return hasAVX2
}

// checkMxMShape rejects degenerate dimensions before any slicing. The
// length checks alone are not enough: m=0 with garbage slices silently
// no-ops, and negative dims whose pairwise products come out positive
// (say m=-1, k=-1) pass `len <` checks and then mis-slice.
func checkMxMShape(what string, m, k, n, la, lb, lc int) {
	if m <= 0 || k <= 0 || n <= 0 {
		panic(fmt.Sprintf("sem: %s dimensions must be positive, got m=%d k=%d n=%d", what, m, k, n))
	}
	if la < m*k || lb < k*n || lc < m*n {
		panic(fmt.Sprintf("sem: %s shape mismatch m=%d k=%d n=%d (len a=%d b=%d c=%d)",
			what, m, k, n, la, lb, lc))
	}
}

// MxM computes c = a*b with the selected variant and returns the
// structural operation count.
func MxM(v MxMVariant, a []float64, m int, b []float64, k int, c []float64, n int) OpCount {
	checkMxMShape("mxm", m, k, n, len(a), len(b), len(c))
	fn, _ := mxmResolve(v, k)
	fn(a, m, b, k, c, n)
	return mxmOps(m, n, k)
}

// MxMBatch computes c[e] = a[e] * b for e in [0, nel), where a holds nel
// consecutive (m x k) blocks and c holds nel consecutive (m x n) blocks —
// nel independent products sharing one B operator. One call resolves the
// kernel once and loops elements. Returns the total structural operation
// count.
func MxMBatch(v MxMVariant, a []float64, m int, b []float64, k int, c []float64, n, nel int) OpCount {
	if nel <= 0 {
		panic(fmt.Sprintf("sem: mxm batch needs nel >= 1, got %d", nel))
	}
	checkMxMShape("mxm batch", m, k, n, len(a)/nel, len(b), len(c)/nel)
	fn, _ := mxmResolve(v, k)
	mk, mn := m*k, m*n
	for e := 0; e < nel; e++ {
		fn(a[e*mk:(e+1)*mk], m, b, k, c[e*mn:(e+1)*mn], n)
	}
	return mxmOps(m, n, k).Times(int64(nel))
}

// mxmFunc is the uniform kernel signature mxmResolve hands out.
type mxmFunc func(a []float64, m int, b []float64, k int, c []float64, n int)

// Fallback-wrapped kernels, so a resolved function is always total even
// if the specialization range is probed outside resolve (defensive; the
// resolver only hands them out in range).
func mxmGenOrFallback(a []float64, m int, b []float64, k int, c []float64, n int) {
	if !mxmGen(a, m, b, k, c, n) {
		mxmFusedUnroll(a, m, b, k, c, n)
	}
}

func mxmSIMDOrFallback(a []float64, m int, b []float64, k int, c []float64, n int) {
	if !mxmSIMD(a, m, b, k, c, n) {
		mxmGenOrFallback(a, m, b, k, c, n)
	}
}

// mxmResolve maps (variant, k) to the kernel that will actually run and
// its effective name. Variants with bounded specialization ranges
// (generated, simd) resolve to their fallback outside the range — the
// name reports the fallback, which is what benchmarks must print.
func mxmResolve(v MxMVariant, k int) (mxmFunc, string) {
	switch v {
	case MxMBasic:
		return mxmBasic, "basic"
	case MxMUnroll:
		return mxmUnroll, "unroll"
	case MxMFused:
		return mxmFused, "fused"
	case MxMFusedUnroll:
		return mxmFusedUnroll, "fused+unroll"
	case MxMGenerated:
		if k >= 1 && k <= mxmGenMaxK {
			return mxmGenOrFallback, "generated"
		}
		return mxmFusedUnroll, "fused+unroll"
	case MxMSIMD:
		if hasAVX2 {
			return mxmSIMDOrFallback, "simd"
		}
		if k >= 1 && k <= mxmGenMaxK {
			return mxmGenOrFallback, "generated"
		}
		return mxmFusedUnroll, "fused+unroll"
	}
	panic(fmt.Sprintf("sem: unknown mxm variant %d", int(v)))
}

// MxMEffective reports the kernel MxM(v, ...) actually runs for
// reduction size k — the variant's own name in its specialization
// range, the fallback's name outside it.
func MxMEffective(v MxMVariant, k int) string {
	_, name := mxmResolve(v, k)
	return name
}

func mxmBasic(a []float64, m int, b []float64, k int, c []float64, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for l := 0; l < k; l++ {
				s += a[i*k+l] * b[l*n+j]
			}
			c[i*n+j] = s
		}
	}
}

func mxmUnroll(a []float64, m int, b []float64, k int, c []float64, n int) {
	k4 := k - k%4
	for i := 0; i < m; i++ {
		ai := a[i*k : i*k+k]
		for j := 0; j < n; j++ {
			var s0, s1, s2, s3 float64
			for l := 0; l < k4; l += 4 {
				s0 += ai[l] * b[l*n+j]
				s1 += ai[l+1] * b[(l+1)*n+j]
				s2 += ai[l+2] * b[(l+2)*n+j]
				s3 += ai[l+3] * b[(l+3)*n+j]
			}
			s := s0 + s1 + s2 + s3
			for l := k4; l < k; l++ {
				s += ai[l] * b[l*n+j]
			}
			c[i*n+j] = s
		}
	}
}

func mxmFused(a []float64, m int, b []float64, k int, c []float64, n int) {
	for i := 0; i < m; i++ {
		ci := c[i*n : i*n+n]
		for j := range ci {
			ci[j] = 0
		}
		ai := a[i*k : i*k+k]
		for l := 0; l < k; l++ {
			ail := ai[l]
			bl := b[l*n : l*n+n]
			for j, blj := range bl {
				ci[j] += ail * blj
			}
		}
	}
}

func mxmFusedUnroll(a []float64, m int, b []float64, k int, c []float64, n int) {
	n4 := n - n%4
	for i := 0; i < m; i++ {
		ci := c[i*n : i*n+n]
		for j := range ci {
			ci[j] = 0
		}
		ai := a[i*k : i*k+k]
		for l := 0; l < k; l++ {
			ail := ai[l]
			bl := b[l*n : l*n+n]
			for j := 0; j < n4; j += 4 {
				ci[j] += ail * bl[j]
				ci[j+1] += ail * bl[j+1]
				ci[j+2] += ail * bl[j+2]
				ci[j+3] += ail * bl[j+3]
			}
			for j := n4; j < n; j++ {
				ci[j] += ail * bl[j]
			}
		}
	}
}
