//go:build !amd64 || semnoasm || race

package sem

// Without the AVX2 backend (non-amd64, semnoasm, or a -race build — see
// deriv_simd_amd64.go) Deriv's r/s table holds the generated Go kernels
// only.
func derivSIMD(Direction) (derivKernel, bool) { return derivKernel{}, false }
