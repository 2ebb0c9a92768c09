//go:build !amd64 || semnoasm || race

package sem

// faceSIMD: no AVX2 face kernels in this build, so FaceApply never calls
// the two below.
func faceSIMD(int) bool { return false }

func rowDotsAVX2(int, []float64, []float64, []float64) { panic("sem: no AVX2 kernels in this build") }

func planeRowsAVX2(int, []float64, int, []float64, int, []float64, int, int) {
	panic("sem: no AVX2 kernels in this build")
}
