package sem

import "fmt"

//go:generate go run ./gen -sem .

// The mxm kernel: C = A * B with A (m x k), B (k x n), C (m x n), all
// row-major. Nek5000 — and therefore CMT-nek and CMT-bone — spends the
// bulk of its time in exactly these small matrix products (N between 5
// and 25). MxM is the one entry; the build and the host pick the kernel
// it runs (mxmKernel), and every kernel it can pick is bit-identical to
// mxmBasic on finite inputs (the generated kernels differ only in the
// sign of an all -0 sum; TestMxMSignedZero pins it).

// HasSIMD reports whether the AVX2 assembly backend is active in this
// build on this host.
func HasSIMD() bool {
	return hasAVX2
}

// MxM computes c = a*b and returns the structural operation count.
func MxM(a []float64, m int, b []float64, k int, c []float64, n int) OpCount {
	// Reject degenerate dimensions before any slicing. The length checks
	// alone are not enough: m=0 with garbage slices silently no-ops, and
	// negative dims whose pairwise products come out positive (say m=-1,
	// k=-1) pass `len <` checks and then mis-slice.
	if m <= 0 || k <= 0 || n <= 0 {
		panic(fmt.Sprintf("sem: mxm dimensions must be positive, got m=%d k=%d n=%d", m, k, n))
	}
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic(fmt.Sprintf("sem: mxm shape mismatch m=%d k=%d n=%d (len a=%d b=%d c=%d)",
			m, k, n, len(a), len(b), len(c)))
	}
	fn, _ := mxmKernel(k)
	fn(a, m, b, k, c, n)
	return mxmOps(m, n, k)
}

// mxmFunc is the uniform kernel signature mxmKernel hands out.
type mxmFunc func(a []float64, m int, b []float64, k int, c []float64, n int)

// mxmKernel picks the kernel MxM runs for reduction size k and names it:
// the AVX2 assembly where the build has it and the host has AVX2, else
// the generated fully k-unrolled kernel for k <= mxmGenMaxK, else
// mxmFusedUnroll. It runs once per call, never per element.
func mxmKernel(k int) (mxmFunc, string) {
	switch {
	case hasAVX2:
		return mxmAVX2, "simd"
	case k <= mxmGenMaxK:
		return mxmGen, "generated"
	}
	return mxmFusedUnroll, "fused+unroll"
}

// MxMEffective names the kernel MxM runs for reduction size k in this
// build on this host: "simd", "generated" or "fused+unroll".
func MxMEffective(k int) string {
	_, name := mxmKernel(k)
	return name
}

// mxmBasic is the textbook i-j-l triple loop: each output element's dot
// product accumulated from +0 in ascending l. It is the reference every
// kernel is tested against.
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

// mxmFusedUnroll is the i-l-j loop with the inner loop unrolled by four
// (the transformation set CMT-bone inherits from Nek5000): it streams
// over rows of B and C and accumulates each output from +0 in ascending
// l, so it rounds exactly like mxmBasic.
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
