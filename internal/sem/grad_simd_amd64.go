//go:build amd64 && !semnoasm && !race

package sem

// faceSIMD reports whether ElemDeriv's Optimized r and s kernels at
// order n are the AVX2 ones (derivSIMD), which FaceApply then runs at a
// face's shape through the two wrappers below.
func faceSIMD(n int) bool { return hasAVX2 && n >= derivGenMinN && n <= derivGenMaxN }

// rowDotsAVX2 sets c[r] = sum over l of w[l]*u[r*n+l] for each of the
// len(c) rows, in derivRAVX2's order.
func rowDotsAVX2(n int, w, u, c []float64) {
	w, u = w[:n], u[:len(c)*n]
	rowDotAVX2(n, &w[0], &u[0], &c[0], len(c))
}

// planeRowsAVX2 sets c, rows*n values a plane, to the first rows rows of
// the product A*B of each of planes pairs of n x n planes, in
// derivSAVX2's order; a and b advance by astep and bstep values a plane.
func planeRowsAVX2(n int, a []float64, astep int, b []float64, bstep int, c []float64, planes, rows int) {
	a, b = a[:(planes-1)*astep+rows*n], b[:(planes-1)*bstep+n*n]
	c = c[:planes*rows*n]
	lanedAVX2(n, &a[0], uintptr(8*astep), &b[0], uintptr(8*bstep), &c[0], planes, rows)
}
