// Code generated by repro/internal/sem/gen (AVX2 r/s derivative kernels: declarations). DO NOT EDIT.

//go:build amd64 && !semnoasm && !race

package sem

// lanedAVX2 runs the AVX2 kernel of a generated order n: for each of
// planes consecutive row-major planes, the first rows rows of the n x n
// product C = A*B with every output's dot product in the 4-lane
// partial-sum order of dudrOpt/dudsOpt — bit-identical to
// derivRN*/derivSN*. a and b advance by astep and bstep bytes per plane,
// c by rows rows. (A switch over direct calls, not a table of function
// values: the kernels' noescape then reaches the caller, whose stack
// buffers stay on the stack.)
func lanedAVX2(n int, a *float64, astep uintptr, b *float64, bstep uintptr, c *float64, planes, rows int) {
	switch n {
	case 4:
		lanedAVX2N4(a, astep, b, bstep, c, planes, rows)
	case 5:
		lanedAVX2N5(a, astep, b, bstep, c, planes, rows)
	case 6:
		lanedAVX2N6(a, astep, b, bstep, c, planes, rows)
	case 7:
		lanedAVX2N7(a, astep, b, bstep, c, planes, rows)
	case 8:
		lanedAVX2N8(a, astep, b, bstep, c, planes, rows)
	case 9:
		lanedAVX2N9(a, astep, b, bstep, c, planes, rows)
	case 10:
		lanedAVX2N10(a, astep, b, bstep, c, planes, rows)
	case 11:
		lanedAVX2N11(a, astep, b, bstep, c, planes, rows)
	case 12:
		lanedAVX2N12(a, astep, b, bstep, c, planes, rows)
	case 13:
		lanedAVX2N13(a, astep, b, bstep, c, planes, rows)
	case 14:
		lanedAVX2N14(a, astep, b, bstep, c, planes, rows)
	case 15:
		lanedAVX2N15(a, astep, b, bstep, c, planes, rows)
	case 16:
		lanedAVX2N16(a, astep, b, bstep, c, planes, rows)
	default:
		panic("sem: no AVX2 derivative kernel for this order")
	}
}

// rowDotAVX2 sets c[r], for each of rows consecutive rows of n values
// from u, to the dot product of w with row r in the 4-lane partial-sum
// order of dudrOpt — bit-identical to one output of derivRN*.
func rowDotAVX2(n int, w, u, c *float64, rows int) {
	switch n {
	case 4:
		rowDotAVX2N4(w, u, c, rows)
	case 5:
		rowDotAVX2N5(w, u, c, rows)
	case 6:
		rowDotAVX2N6(w, u, c, rows)
	case 7:
		rowDotAVX2N7(w, u, c, rows)
	case 8:
		rowDotAVX2N8(w, u, c, rows)
	case 9:
		rowDotAVX2N9(w, u, c, rows)
	case 10:
		rowDotAVX2N10(w, u, c, rows)
	case 11:
		rowDotAVX2N11(w, u, c, rows)
	case 12:
		rowDotAVX2N12(w, u, c, rows)
	case 13:
		rowDotAVX2N13(w, u, c, rows)
	case 14:
		rowDotAVX2N14(w, u, c, rows)
	case 15:
		rowDotAVX2N15(w, u, c, rows)
	case 16:
		rowDotAVX2N16(w, u, c, rows)
	default:
		panic("sem: no AVX2 derivative kernel for this order")
	}
}

//go:noescape
func lanedAVX2N4(a *float64, astep uintptr, b *float64, bstep uintptr, c *float64, planes, rows int)

//go:noescape
func lanedAVX2N5(a *float64, astep uintptr, b *float64, bstep uintptr, c *float64, planes, rows int)

//go:noescape
func lanedAVX2N6(a *float64, astep uintptr, b *float64, bstep uintptr, c *float64, planes, rows int)

//go:noescape
func lanedAVX2N7(a *float64, astep uintptr, b *float64, bstep uintptr, c *float64, planes, rows int)

//go:noescape
func lanedAVX2N8(a *float64, astep uintptr, b *float64, bstep uintptr, c *float64, planes, rows int)

//go:noescape
func lanedAVX2N9(a *float64, astep uintptr, b *float64, bstep uintptr, c *float64, planes, rows int)

//go:noescape
func lanedAVX2N10(a *float64, astep uintptr, b *float64, bstep uintptr, c *float64, planes, rows int)

//go:noescape
func lanedAVX2N11(a *float64, astep uintptr, b *float64, bstep uintptr, c *float64, planes, rows int)

//go:noescape
func lanedAVX2N12(a *float64, astep uintptr, b *float64, bstep uintptr, c *float64, planes, rows int)

//go:noescape
func lanedAVX2N13(a *float64, astep uintptr, b *float64, bstep uintptr, c *float64, planes, rows int)

//go:noescape
func lanedAVX2N14(a *float64, astep uintptr, b *float64, bstep uintptr, c *float64, planes, rows int)

//go:noescape
func lanedAVX2N15(a *float64, astep uintptr, b *float64, bstep uintptr, c *float64, planes, rows int)

//go:noescape
func lanedAVX2N16(a *float64, astep uintptr, b *float64, bstep uintptr, c *float64, planes, rows int)

//go:noescape
func rowDotAVX2N4(w, u, c *float64, rows int)

//go:noescape
func rowDotAVX2N5(w, u, c *float64, rows int)

//go:noescape
func rowDotAVX2N6(w, u, c *float64, rows int)

//go:noescape
func rowDotAVX2N7(w, u, c *float64, rows int)

//go:noescape
func rowDotAVX2N8(w, u, c *float64, rows int)

//go:noescape
func rowDotAVX2N9(w, u, c *float64, rows int)

//go:noescape
func rowDotAVX2N10(w, u, c *float64, rows int)

//go:noescape
func rowDotAVX2N11(w, u, c *float64, rows int)

//go:noescape
func rowDotAVX2N12(w, u, c *float64, rows int)

//go:noescape
func rowDotAVX2N13(w, u, c *float64, rows int)

//go:noescape
func rowDotAVX2N14(w, u, c *float64, rows int)

//go:noescape
func rowDotAVX2N15(w, u, c *float64, rows int)

//go:noescape
func rowDotAVX2N16(w, u, c *float64, rows int)
