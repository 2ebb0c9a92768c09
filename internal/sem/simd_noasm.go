//go:build !amd64 || semnoasm

package sem

// Pure-Go fallback for hosts without the AVX2 backend (non-amd64, or
// the semnoasm build tag). MxM runs the generated kernels, and
// fused+unroll above their range.

const hasAVX2 = false

// mxmAVX2 is never picked here (hasAVX2 is false); it lets mxmKernel
// compile on every build.
func mxmAVX2(a []float64, m int, b []float64, k int, c []float64, n int) {
	panic("sem: no AVX2 mxm kernel in this build")
}
