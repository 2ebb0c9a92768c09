//go:build amd64 && !semnoasm && !race

package sem

// AVX2 backend for the r and s derivative kernels: the generated
// assembly (deriv_avx2_amd64.s) keeps the mxm backend's rule — separate
// VMULPD/VADDPD, no FMA — in dudrOpt/dudsOpt's four-lane order. Builds
// with -race leave it out, like semnoasm builds: the race detector
// cannot see assembly's loads and stores, and the element loops these
// kernels sit in (pool slots sharing arrays, each with private scratch)
// are what it is there to watch; the generated Go kernels it sees are
// bit-identical.

// derivSIMD returns the AVX2 kernel applying an operator along dir (DirR
// or DirS) at the generated orders, or false when the host lacks AVX2.
func derivSIMD(dir Direction) (derivKernel, bool) {
	switch {
	case !hasAVX2:
		return derivKernel{}, false
	case dir == DirR:
		return derivKernel{fn: derivRAVX2, fnT: derivRTAVX2}, true
	}
	return derivKernel{fn: derivSAVX2}, true
}

// derivRTAVX2 is dudr on the AVX2 kernel of order n, given the operator
// transposed: each plane's columns times dt, four outputs i to a vector.
func derivRTAVX2(dt []float64, n int, u, du []float64, nel int) {
	if nel == 0 {
		return
	}
	n2 := n * n
	dt, u, du = dt[:n2], u[:nel*n*n2], du[:nel*n*n2]
	lanedAVX2(n, &u[0], uintptr(8*n2), &dt[0], 0, &du[0], nel*n, n)
}

// derivRAVX2 is derivRTAVX2 for callers that hold the operator row-major
// like every other axisFunc: it transposes d (at most 16 x 16) on the
// stack, a few percent of one element's sweep.
func derivRAVX2(d []float64, n int, u, du []float64, nel int) {
	var dt [derivGenMaxN * derivGenMaxN]float64
	for i := 0; i < n; i++ {
		for l, v := range d[i*n : i*n+n] {
			dt[l*n+i] = v
		}
	}
	derivRTAVX2(dt[:], n, u, du, nel)
}

// derivSAVX2 is duds on the AVX2 kernel of order n: the operator times
// each plane, four outputs i of a row to a vector.
func derivSAVX2(d []float64, n int, u, du []float64, nel int) {
	if nel == 0 {
		return
	}
	n2 := n * n
	d, u, du = d[:n2], u[:nel*n*n2], du[:nel*n*n2]
	lanedAVX2(n, &d[0], 0, &u[0], uintptr(8*n2), &du[0], nel*n, n)
}
