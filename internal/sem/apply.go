package sem

import "fmt"

// ApplyDir applies an arbitrary (n x n) row-major operator mat along one
// reference direction of element data (the generalization of Deriv to any
// 1D operator — transposed derivative, filter, mass scaling). Along r and
// t it runs the kernels of Deriv(dir, Optimized, ...); along s it
// accumulates in ascending l (MxM(MxMSIMD)'s kernel per slab)
// rather than in dudsOpt's four lanes. du must not alias u.
func ApplyDir(dir Direction, mat []float64, n int, u, du []float64, nel int) OpCount {
	checkAxis("apply", mat, n, u, du, nel)
	var fn axisFunc
	switch dir {
	case DirR:
		fn = derivResolve(DirR, Optimized, n)
	case DirS:
		fn = applySMxM
	case DirT:
		fn = applyTMxM
	default:
		panic(fmt.Sprintf("sem: bad direction %d", int(dir)))
	}
	fn(mat, n, u, du, nel)
	return derivOps(n, nel)
}
