//go:build amd64 && !semnoasm

package sem

// AVX2 backend for the mxm kernel. The assembly (mxm_avx2_amd64.s)
// computes C in 4 x 8 and 4 x 4 register blocks, broadcasting one A
// scalar per row against shared B-row vectors, and accumulates each
// output lane from +0 in ascending-l order with separate VMULPD/VADDPD —
// deliberately no FMA, whose single rounding would break bit-identity
// with the scalar kernels. The semnoasm build tag swaps in the pure-Go
// fallback (simd_noasm.go), so the portable path stays honest and
// CI-covered. (The r/s derivative kernels' AVX2 backend is
// deriv_simd_amd64.go.)

// mxmAVX2Asm computes C (m x n) = A (m x k) * B (k x n), row-major.
// Requires m, k, n >= 1 and AVX2; the caller guards both.
func mxmAVX2Asm(a *float64, m int, b *float64, k int, c *float64, n int)

// cpuidex executes CPUID with the given leaf/subleaf.
func cpuidex(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the OS-enabled extended-state mask.
func xgetbv0() (eax, edx uint32)

var hasAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU supports AVX2 and the OS has
// enabled YMM state (XCR0 bits 1 and 2). Hand-rolled CPUID so the
// module needs no dependency on golang.org/x/sys.
func detectAVX2() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if eax, _ := xgetbv0(); eax&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	return ebx7&(1<<5) != 0
}

// mxmAVX2 runs the assembly kernel; mxmKernel hands it out only when
// hasAVX2 holds.
func mxmAVX2(a []float64, m int, b []float64, k int, c []float64, n int) {
	mxmAVX2Asm(&a[0], m, &b[0], k, &c[0], n)
}
