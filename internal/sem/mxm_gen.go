// Code generated by repro/internal/sem/gen (fully-unrolled mxm kernels). DO NOT EDIT.

package sem

// mxmGenMaxK is the largest k with a generated specialization.
const mxmGenMaxK = 16

// mxmGen dispatches C = A*B on the generated fully k-unrolled kernels;
// k must be in [1, mxmGenMaxK]. Each kernel accumulates every output
// element's dot product strictly left to right, bit-identical to mxmBasic
// except that an all -0 sum stays -0.
func mxmGen(a []float64, m int, b []float64, k int, c []float64, n int) {
	switch k {
	case 1:
		mxmGenK1(a, m, b, c, n)
	case 2:
		mxmGenK2(a, m, b, c, n)
	case 3:
		mxmGenK3(a, m, b, c, n)
	case 4:
		mxmGenK4(a, m, b, c, n)
	case 5:
		mxmGenK5(a, m, b, c, n)
	case 6:
		mxmGenK6(a, m, b, c, n)
	case 7:
		mxmGenK7(a, m, b, c, n)
	case 8:
		mxmGenK8(a, m, b, c, n)
	case 9:
		mxmGenK9(a, m, b, c, n)
	case 10:
		mxmGenK10(a, m, b, c, n)
	case 11:
		mxmGenK11(a, m, b, c, n)
	case 12:
		mxmGenK12(a, m, b, c, n)
	case 13:
		mxmGenK13(a, m, b, c, n)
	case 14:
		mxmGenK14(a, m, b, c, n)
	case 15:
		mxmGenK15(a, m, b, c, n)
	case 16:
		mxmGenK16(a, m, b, c, n)
	default:
		panic("sem: no generated mxm kernel for this k")
	}
}

// mxmGenK1: C (m x n) = A (m x 1) * B (1 x n), k fully unrolled.
func mxmGenK1(a []float64, m int, b, c []float64, n int) {
	b0 := b[0*n : 1*n]
	for i := 0; i < m; i++ {
		ar := a[i*1 : i*1+1]
		a0 := ar[0]
		ci := c[i*n : i*n+n]
		for j := range ci {
			ci[j] = a0 * b0[j]
		}
	}
}

// mxmGenK2: C (m x n) = A (m x 2) * B (2 x n), k fully unrolled.
func mxmGenK2(a []float64, m int, b, c []float64, n int) {
	b0 := b[0*n : 1*n]
	b1 := b[1*n : 2*n]
	for i := 0; i < m; i++ {
		ar := a[i*2 : i*2+2]
		a0 := ar[0]
		a1 := ar[1]
		ci := c[i*n : i*n+n]
		for j := range ci {
			ci[j] = a0*b0[j] + a1*b1[j]
		}
	}
}

// mxmGenK3: C (m x n) = A (m x 3) * B (3 x n), k fully unrolled.
func mxmGenK3(a []float64, m int, b, c []float64, n int) {
	b0 := b[0*n : 1*n]
	b1 := b[1*n : 2*n]
	b2 := b[2*n : 3*n]
	for i := 0; i < m; i++ {
		ar := a[i*3 : i*3+3]
		a0 := ar[0]
		a1 := ar[1]
		a2 := ar[2]
		ci := c[i*n : i*n+n]
		for j := range ci {
			ci[j] = a0*b0[j] + a1*b1[j] + a2*b2[j]
		}
	}
}

// mxmGenK4: C (m x n) = A (m x 4) * B (4 x n), k fully unrolled.
func mxmGenK4(a []float64, m int, b, c []float64, n int) {
	b0 := b[0*n : 1*n]
	b1 := b[1*n : 2*n]
	b2 := b[2*n : 3*n]
	b3 := b[3*n : 4*n]
	for i := 0; i < m; i++ {
		ar := a[i*4 : i*4+4]
		a0 := ar[0]
		a1 := ar[1]
		a2 := ar[2]
		a3 := ar[3]
		ci := c[i*n : i*n+n]
		for j := range ci {
			ci[j] = a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
}

// mxmGenK5: C (m x n) = A (m x 5) * B (5 x n), k fully unrolled.
func mxmGenK5(a []float64, m int, b, c []float64, n int) {
	b0 := b[0*n : 1*n]
	b1 := b[1*n : 2*n]
	b2 := b[2*n : 3*n]
	b3 := b[3*n : 4*n]
	b4 := b[4*n : 5*n]
	for i := 0; i < m; i++ {
		ar := a[i*5 : i*5+5]
		a0 := ar[0]
		a1 := ar[1]
		a2 := ar[2]
		a3 := ar[3]
		a4 := ar[4]
		ci := c[i*n : i*n+n]
		for j := range ci {
			ci[j] = a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j] + a4*b4[j]
		}
	}
}

// mxmGenK6: C (m x n) = A (m x 6) * B (6 x n), k fully unrolled.
func mxmGenK6(a []float64, m int, b, c []float64, n int) {
	b0 := b[0*n : 1*n]
	b1 := b[1*n : 2*n]
	b2 := b[2*n : 3*n]
	b3 := b[3*n : 4*n]
	b4 := b[4*n : 5*n]
	b5 := b[5*n : 6*n]
	for i := 0; i < m; i++ {
		ar := a[i*6 : i*6+6]
		a0 := ar[0]
		a1 := ar[1]
		a2 := ar[2]
		a3 := ar[3]
		a4 := ar[4]
		a5 := ar[5]
		ci := c[i*n : i*n+n]
		for j := range ci {
			ci[j] = a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j] + a4*b4[j] + a5*b5[j]
		}
	}
}

// mxmGenK7: C (m x n) = A (m x 7) * B (7 x n), k fully unrolled.
func mxmGenK7(a []float64, m int, b, c []float64, n int) {
	b0 := b[0*n : 1*n]
	b1 := b[1*n : 2*n]
	b2 := b[2*n : 3*n]
	b3 := b[3*n : 4*n]
	b4 := b[4*n : 5*n]
	b5 := b[5*n : 6*n]
	b6 := b[6*n : 7*n]
	for i := 0; i < m; i++ {
		ar := a[i*7 : i*7+7]
		a0 := ar[0]
		a1 := ar[1]
		a2 := ar[2]
		a3 := ar[3]
		a4 := ar[4]
		a5 := ar[5]
		a6 := ar[6]
		ci := c[i*n : i*n+n]
		for j := range ci {
			ci[j] = a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j] + a4*b4[j] + a5*b5[j] + a6*b6[j]
		}
	}
}

// mxmGenK8: C (m x n) = A (m x 8) * B (8 x n), k fully unrolled.
func mxmGenK8(a []float64, m int, b, c []float64, n int) {
	b0 := b[0*n : 1*n]
	b1 := b[1*n : 2*n]
	b2 := b[2*n : 3*n]
	b3 := b[3*n : 4*n]
	b4 := b[4*n : 5*n]
	b5 := b[5*n : 6*n]
	b6 := b[6*n : 7*n]
	b7 := b[7*n : 8*n]
	for i := 0; i < m; i++ {
		ar := a[i*8 : i*8+8]
		a0 := ar[0]
		a1 := ar[1]
		a2 := ar[2]
		a3 := ar[3]
		a4 := ar[4]
		a5 := ar[5]
		a6 := ar[6]
		a7 := ar[7]
		ci := c[i*n : i*n+n]
		for j := range ci {
			ci[j] = a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j] + a4*b4[j] + a5*b5[j] + a6*b6[j] + a7*b7[j]
		}
	}
}

// mxmGenK9: C (m x n) = A (m x 9) * B (9 x n), k fully unrolled.
func mxmGenK9(a []float64, m int, b, c []float64, n int) {
	b0 := b[0*n : 1*n]
	b1 := b[1*n : 2*n]
	b2 := b[2*n : 3*n]
	b3 := b[3*n : 4*n]
	b4 := b[4*n : 5*n]
	b5 := b[5*n : 6*n]
	b6 := b[6*n : 7*n]
	b7 := b[7*n : 8*n]
	b8 := b[8*n : 9*n]
	for i := 0; i < m; i++ {
		ar := a[i*9 : i*9+9]
		a0 := ar[0]
		a1 := ar[1]
		a2 := ar[2]
		a3 := ar[3]
		a4 := ar[4]
		a5 := ar[5]
		a6 := ar[6]
		a7 := ar[7]
		a8 := ar[8]
		ci := c[i*n : i*n+n]
		for j := range ci {
			ci[j] = a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j] + a4*b4[j] + a5*b5[j] + a6*b6[j] + a7*b7[j] + a8*b8[j]
		}
	}
}

// mxmGenK10: C (m x n) = A (m x 10) * B (10 x n), k fully unrolled.
func mxmGenK10(a []float64, m int, b, c []float64, n int) {
	b0 := b[0*n : 1*n]
	b1 := b[1*n : 2*n]
	b2 := b[2*n : 3*n]
	b3 := b[3*n : 4*n]
	b4 := b[4*n : 5*n]
	b5 := b[5*n : 6*n]
	b6 := b[6*n : 7*n]
	b7 := b[7*n : 8*n]
	b8 := b[8*n : 9*n]
	b9 := b[9*n : 10*n]
	for i := 0; i < m; i++ {
		ar := a[i*10 : i*10+10]
		a0 := ar[0]
		a1 := ar[1]
		a2 := ar[2]
		a3 := ar[3]
		a4 := ar[4]
		a5 := ar[5]
		a6 := ar[6]
		a7 := ar[7]
		a8 := ar[8]
		a9 := ar[9]
		ci := c[i*n : i*n+n]
		for j := range ci {
			ci[j] = a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j] + a4*b4[j] + a5*b5[j] + a6*b6[j] + a7*b7[j] + a8*b8[j] + a9*b9[j]
		}
	}
}

// mxmGenK11: C (m x n) = A (m x 11) * B (11 x n), k fully unrolled.
func mxmGenK11(a []float64, m int, b, c []float64, n int) {
	b0 := b[0*n : 1*n]
	b1 := b[1*n : 2*n]
	b2 := b[2*n : 3*n]
	b3 := b[3*n : 4*n]
	b4 := b[4*n : 5*n]
	b5 := b[5*n : 6*n]
	b6 := b[6*n : 7*n]
	b7 := b[7*n : 8*n]
	b8 := b[8*n : 9*n]
	b9 := b[9*n : 10*n]
	b10 := b[10*n : 11*n]
	for i := 0; i < m; i++ {
		ar := a[i*11 : i*11+11]
		a0 := ar[0]
		a1 := ar[1]
		a2 := ar[2]
		a3 := ar[3]
		a4 := ar[4]
		a5 := ar[5]
		a6 := ar[6]
		a7 := ar[7]
		a8 := ar[8]
		a9 := ar[9]
		a10 := ar[10]
		ci := c[i*n : i*n+n]
		for j := range ci {
			ci[j] = a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j] + a4*b4[j] + a5*b5[j] + a6*b6[j] + a7*b7[j] + a8*b8[j] + a9*b9[j] + a10*b10[j]
		}
	}
}

// mxmGenK12: C (m x n) = A (m x 12) * B (12 x n), k fully unrolled.
func mxmGenK12(a []float64, m int, b, c []float64, n int) {
	b0 := b[0*n : 1*n]
	b1 := b[1*n : 2*n]
	b2 := b[2*n : 3*n]
	b3 := b[3*n : 4*n]
	b4 := b[4*n : 5*n]
	b5 := b[5*n : 6*n]
	b6 := b[6*n : 7*n]
	b7 := b[7*n : 8*n]
	b8 := b[8*n : 9*n]
	b9 := b[9*n : 10*n]
	b10 := b[10*n : 11*n]
	b11 := b[11*n : 12*n]
	for i := 0; i < m; i++ {
		ar := a[i*12 : i*12+12]
		a0 := ar[0]
		a1 := ar[1]
		a2 := ar[2]
		a3 := ar[3]
		a4 := ar[4]
		a5 := ar[5]
		a6 := ar[6]
		a7 := ar[7]
		a8 := ar[8]
		a9 := ar[9]
		a10 := ar[10]
		a11 := ar[11]
		ci := c[i*n : i*n+n]
		for j := range ci {
			ci[j] = a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j] + a4*b4[j] + a5*b5[j] + a6*b6[j] + a7*b7[j] + a8*b8[j] + a9*b9[j] + a10*b10[j] + a11*b11[j]
		}
	}
}

// mxmGenK13: C (m x n) = A (m x 13) * B (13 x n), k fully unrolled.
func mxmGenK13(a []float64, m int, b, c []float64, n int) {
	b0 := b[0*n : 1*n]
	b1 := b[1*n : 2*n]
	b2 := b[2*n : 3*n]
	b3 := b[3*n : 4*n]
	b4 := b[4*n : 5*n]
	b5 := b[5*n : 6*n]
	b6 := b[6*n : 7*n]
	b7 := b[7*n : 8*n]
	b8 := b[8*n : 9*n]
	b9 := b[9*n : 10*n]
	b10 := b[10*n : 11*n]
	b11 := b[11*n : 12*n]
	b12 := b[12*n : 13*n]
	for i := 0; i < m; i++ {
		ar := a[i*13 : i*13+13]
		a0 := ar[0]
		a1 := ar[1]
		a2 := ar[2]
		a3 := ar[3]
		a4 := ar[4]
		a5 := ar[5]
		a6 := ar[6]
		a7 := ar[7]
		a8 := ar[8]
		a9 := ar[9]
		a10 := ar[10]
		a11 := ar[11]
		a12 := ar[12]
		ci := c[i*n : i*n+n]
		for j := range ci {
			ci[j] = a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j] + a4*b4[j] + a5*b5[j] + a6*b6[j] + a7*b7[j] + a8*b8[j] + a9*b9[j] + a10*b10[j] + a11*b11[j] + a12*b12[j]
		}
	}
}

// mxmGenK14: C (m x n) = A (m x 14) * B (14 x n), k fully unrolled.
func mxmGenK14(a []float64, m int, b, c []float64, n int) {
	b0 := b[0*n : 1*n]
	b1 := b[1*n : 2*n]
	b2 := b[2*n : 3*n]
	b3 := b[3*n : 4*n]
	b4 := b[4*n : 5*n]
	b5 := b[5*n : 6*n]
	b6 := b[6*n : 7*n]
	b7 := b[7*n : 8*n]
	b8 := b[8*n : 9*n]
	b9 := b[9*n : 10*n]
	b10 := b[10*n : 11*n]
	b11 := b[11*n : 12*n]
	b12 := b[12*n : 13*n]
	b13 := b[13*n : 14*n]
	for i := 0; i < m; i++ {
		ar := a[i*14 : i*14+14]
		a0 := ar[0]
		a1 := ar[1]
		a2 := ar[2]
		a3 := ar[3]
		a4 := ar[4]
		a5 := ar[5]
		a6 := ar[6]
		a7 := ar[7]
		a8 := ar[8]
		a9 := ar[9]
		a10 := ar[10]
		a11 := ar[11]
		a12 := ar[12]
		a13 := ar[13]
		ci := c[i*n : i*n+n]
		for j := range ci {
			ci[j] = a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j] + a4*b4[j] + a5*b5[j] + a6*b6[j] + a7*b7[j] + a8*b8[j] + a9*b9[j] + a10*b10[j] + a11*b11[j] + a12*b12[j] + a13*b13[j]
		}
	}
}

// mxmGenK15: C (m x n) = A (m x 15) * B (15 x n), k fully unrolled.
func mxmGenK15(a []float64, m int, b, c []float64, n int) {
	b0 := b[0*n : 1*n]
	b1 := b[1*n : 2*n]
	b2 := b[2*n : 3*n]
	b3 := b[3*n : 4*n]
	b4 := b[4*n : 5*n]
	b5 := b[5*n : 6*n]
	b6 := b[6*n : 7*n]
	b7 := b[7*n : 8*n]
	b8 := b[8*n : 9*n]
	b9 := b[9*n : 10*n]
	b10 := b[10*n : 11*n]
	b11 := b[11*n : 12*n]
	b12 := b[12*n : 13*n]
	b13 := b[13*n : 14*n]
	b14 := b[14*n : 15*n]
	for i := 0; i < m; i++ {
		ar := a[i*15 : i*15+15]
		a0 := ar[0]
		a1 := ar[1]
		a2 := ar[2]
		a3 := ar[3]
		a4 := ar[4]
		a5 := ar[5]
		a6 := ar[6]
		a7 := ar[7]
		a8 := ar[8]
		a9 := ar[9]
		a10 := ar[10]
		a11 := ar[11]
		a12 := ar[12]
		a13 := ar[13]
		a14 := ar[14]
		ci := c[i*n : i*n+n]
		for j := range ci {
			ci[j] = a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j] + a4*b4[j] + a5*b5[j] + a6*b6[j] + a7*b7[j] + a8*b8[j] + a9*b9[j] + a10*b10[j] + a11*b11[j] + a12*b12[j] + a13*b13[j] + a14*b14[j]
		}
	}
}

// mxmGenK16: C (m x n) = A (m x 16) * B (16 x n), k fully unrolled.
func mxmGenK16(a []float64, m int, b, c []float64, n int) {
	b0 := b[0*n : 1*n]
	b1 := b[1*n : 2*n]
	b2 := b[2*n : 3*n]
	b3 := b[3*n : 4*n]
	b4 := b[4*n : 5*n]
	b5 := b[5*n : 6*n]
	b6 := b[6*n : 7*n]
	b7 := b[7*n : 8*n]
	b8 := b[8*n : 9*n]
	b9 := b[9*n : 10*n]
	b10 := b[10*n : 11*n]
	b11 := b[11*n : 12*n]
	b12 := b[12*n : 13*n]
	b13 := b[13*n : 14*n]
	b14 := b[14*n : 15*n]
	b15 := b[15*n : 16*n]
	for i := 0; i < m; i++ {
		ar := a[i*16 : i*16+16]
		a0 := ar[0]
		a1 := ar[1]
		a2 := ar[2]
		a3 := ar[3]
		a4 := ar[4]
		a5 := ar[5]
		a6 := ar[6]
		a7 := ar[7]
		a8 := ar[8]
		a9 := ar[9]
		a10 := ar[10]
		a11 := ar[11]
		a12 := ar[12]
		a13 := ar[13]
		a14 := ar[14]
		a15 := ar[15]
		ci := c[i*n : i*n+n]
		for j := range ci {
			ci[j] = a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j] + a4*b4[j] + a5*b5[j] + a6*b6[j] + a7*b7[j] + a8*b8[j] + a9*b9[j] + a10*b10[j] + a11*b11[j] + a12*b12[j] + a13*b13[j] + a14*b14[j] + a15*b15[j]
		}
	}
}
