//go:build !amd64 || semnoasm || race

package sem

// Without the AVX2 backend (non-amd64, semnoasm, or a -race build — see
// deriv_simd_amd64.go) Deriv runs the generated Go r/s kernels.
func derivSIMD(Direction) (derivKernel, bool) { return derivKernel{}, false }
