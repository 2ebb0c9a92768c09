// Code generated by repro/internal/sem/gen (pointwise kernels: test table). DO NOT EDIT.

//go:build amd64 && !semnoasm && !race

package solver

// pwKernels lists every pointwise kernel's Go and AVX2 loops behind
// adapters taking the streams and the scalars (caller's, then constants)
// as slices; avx2 runs the first n&^3 points.
var pwKernels = []struct {
	name             string
	streams, scalars int
	goLoop           func(s [][]float64, k []float64)
	avx2             func(s [][]float64, k []float64, n int)
}{
	{"primitives", 9, 3,
		func(s [][]float64, k []float64) {
			primitivesGo(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], k[0], k[1], k[2])
		},
		func(s [][]float64, k []float64, n int) {
			primitivesAVX2(&s[0][:1][0], &s[1][:1][0], &s[2][:1][0], &s[3][:1][0], &s[4][:1][0], &s[5][:1][0], &s[6][:1][0], &s[7][:1][0], &s[8][:1][0], k[0], k[1], k[2], n)
		}},
	{"energyFlux", 8, 0,
		func(s [][]float64, k []float64) { energyFluxGo(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]) },
		func(s [][]float64, k []float64, n int) {
			energyFluxAVX2(&s[0][:1][0], &s[1][:1][0], &s[2][:1][0], &s[3][:1][0], &s[4][:1][0], &s[5][:1][0], &s[6][:1][0], &s[7][:1][0], n)
		}},
	{"momentumFluxX", 8, 0,
		func(s [][]float64, k []float64) { momentumFluxXGo(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]) },
		func(s [][]float64, k []float64, n int) {
			momentumFluxXAVX2(&s[0][:1][0], &s[1][:1][0], &s[2][:1][0], &s[3][:1][0], &s[4][:1][0], &s[5][:1][0], &s[6][:1][0], &s[7][:1][0], n)
		}},
	{"momentumFluxY", 8, 0,
		func(s [][]float64, k []float64) { momentumFluxYGo(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]) },
		func(s [][]float64, k []float64, n int) {
			momentumFluxYAVX2(&s[0][:1][0], &s[1][:1][0], &s[2][:1][0], &s[3][:1][0], &s[4][:1][0], &s[5][:1][0], &s[6][:1][0], &s[7][:1][0], n)
		}},
	{"momentumFluxZ", 8, 0,
		func(s [][]float64, k []float64) { momentumFluxZGo(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]) },
		func(s [][]float64, k []float64, n int) {
			momentumFluxZAVX2(&s[0][:1][0], &s[1][:1][0], &s[2][:1][0], &s[3][:1][0], &s[4][:1][0], &s[5][:1][0], &s[6][:1][0], &s[7][:1][0], n)
		}},
	{"divergence", 4, 1,
		func(s [][]float64, k []float64) { divergenceGo(s[0], s[1], s[2], s[3], k[0]) },
		func(s [][]float64, k []float64, n int) {
			divergenceAVX2(&s[0][:1][0], &s[1][:1][0], &s[2][:1][0], &s[3][:1][0], k[0], n)
		}},
	{"rkStage1", 3, 1,
		func(s [][]float64, k []float64) { rkStage1Go(s[0], s[1], s[2], k[0]) },
		func(s [][]float64, k []float64, n int) {
			rkStage1AVX2(&s[0][:1][0], &s[1][:1][0], &s[2][:1][0], k[0], n)
		}},
	{"rkStage2", 3, 3,
		func(s [][]float64, k []float64) { rkStage2Go(s[0], s[1], s[2], k[0], k[1], k[2]) },
		func(s [][]float64, k []float64, n int) {
			rkStage2AVX2(&s[0][:1][0], &s[1][:1][0], &s[2][:1][0], k[0], k[1], k[2], n)
		}},
	{"rkStage3", 3, 3,
		func(s [][]float64, k []float64) { rkStage3Go(s[0], s[1], s[2], k[0], k[1], k[2]) },
		func(s [][]float64, k []float64, n int) {
			rkStage3AVX2(&s[0][:1][0], &s[1][:1][0], &s[2][:1][0], k[0], k[1], k[2], n)
		}},
	{"liftPair", 5, 4,
		func(s [][]float64, k []float64) { liftPairGo(s[0], s[1], s[2], s[3], s[4], k[0], k[1], k[2], k[3]) },
		func(s [][]float64, k []float64, n int) {
			liftPairAVX2(&s[0][:1][0], &s[1][:1][0], &s[2][:1][0], &s[3][:1][0], &s[4][:1][0], k[0], k[1], k[2], k[3], n)
		}},
	{"liftBoundary", 5, 4,
		func(s [][]float64, k []float64) { liftBoundaryGo(s[0], s[1], s[2], s[3], s[4], k[0], k[1], k[2], k[3]) },
		func(s [][]float64, k []float64, n int) {
			liftBoundaryAVX2(&s[0][:1][0], &s[1][:1][0], &s[2][:1][0], &s[3][:1][0], &s[4][:1][0], k[0], k[1], k[2], k[3], n)
		}},
	{"surfaceFluxX", 10, 3,
		func(s [][]float64, k []float64) {
			surfaceFluxXGo(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], k[0], k[1], k[2])
		},
		func(s [][]float64, k []float64, n int) {
			surfaceFluxXAVX2(&s[0][:1][0], &s[1][:1][0], &s[2][:1][0], &s[3][:1][0], &s[4][:1][0], &s[5][:1][0], &s[6][:1][0], &s[7][:1][0], &s[8][:1][0], &s[9][:1][0], k[0], k[1], k[2], n)
		}},
	{"surfaceFluxY", 10, 3,
		func(s [][]float64, k []float64) {
			surfaceFluxYGo(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], k[0], k[1], k[2])
		},
		func(s [][]float64, k []float64, n int) {
			surfaceFluxYAVX2(&s[0][:1][0], &s[1][:1][0], &s[2][:1][0], &s[3][:1][0], &s[4][:1][0], &s[5][:1][0], &s[6][:1][0], &s[7][:1][0], &s[8][:1][0], &s[9][:1][0], k[0], k[1], k[2], n)
		}},
	{"surfaceFluxZ", 10, 3,
		func(s [][]float64, k []float64) {
			surfaceFluxZGo(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], k[0], k[1], k[2])
		},
		func(s [][]float64, k []float64, n int) {
			surfaceFluxZAVX2(&s[0][:1][0], &s[1][:1][0], &s[2][:1][0], &s[3][:1][0], &s[4][:1][0], &s[5][:1][0], &s[6][:1][0], &s[7][:1][0], &s[8][:1][0], &s[9][:1][0], k[0], k[1], k[2], n)
		}},
	{"temperature", 3, 0,
		func(s [][]float64, k []float64) { temperatureGo(s[0], s[1], s[2]) },
		func(s [][]float64, k []float64, n int) { temperatureAVX2(&s[0][:1][0], &s[1][:1][0], &s[2][:1][0], n) }},
	{"scaleBy", 1, 1,
		func(s [][]float64, k []float64) { scaleByGo(s[0], k[0]) },
		func(s [][]float64, k []float64, n int) { scaleByAVX2(&s[0][:1][0], k[0], n) }},
	{"stress", 9, 2,
		func(s [][]float64, k []float64) {
			stressGo(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], k[0], k[1])
		},
		func(s [][]float64, k []float64, n int) {
			stressAVX2(&s[0][:1][0], &s[1][:1][0], &s[2][:1][0], &s[3][:1][0], &s[4][:1][0], &s[5][:1][0], &s[6][:1][0], &s[7][:1][0], &s[8][:1][0], k[0], k[1], n)
		}},
	{"subtractFlux", 2, 0,
		func(s [][]float64, k []float64) { subtractFluxGo(s[0], s[1]) },
		func(s [][]float64, k []float64, n int) { subtractFluxAVX2(&s[0][:1][0], &s[1][:1][0], n) }},
	{"subtractEnergyFlux", 8, 0,
		func(s [][]float64, k []float64) { subtractEnergyFluxGo(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]) },
		func(s [][]float64, k []float64, n int) {
			subtractEnergyFluxAVX2(&s[0][:1][0], &s[1][:1][0], &s[2][:1][0], &s[3][:1][0], &s[4][:1][0], &s[5][:1][0], &s[6][:1][0], &s[7][:1][0], n)
		}},
}
