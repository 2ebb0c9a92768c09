// Code generated by repro/internal/sem/gen (per-order single-direction derivative kernels). DO NOT EDIT.

package sem

// derivGenMinN..derivGenMaxN are the orders with generated kernels.
const (
	derivGenMinN = 4
	derivGenMaxN = 16
)

// derivRGen and derivSGen hold the r- and s-direction kernels of every
// generated order (nil elsewhere). A kernel runs one per-plane loop body
// over all nel*n planes of a batch of elements, keeping the 4-lane
// partial-sum grouping of dudrOpt / dudsOpt, so it is bit-identical to
// them. The order is baked in; the n argument only fills out the
// axisFunc signature.
var derivRGen = [...]axisFunc{
	4:  derivRN4,
	5:  derivRN5,
	6:  derivRN6,
	7:  derivRN7,
	8:  derivRN8,
	9:  derivRN9,
	10: derivRN10,
	11: derivRN11,
	12: derivRN12,
	13: derivRN13,
	14: derivRN14,
	15: derivRN15,
	16: derivRN16,
}

var derivSGen = [...]axisFunc{
	4:  derivSN4,
	5:  derivSN5,
	6:  derivSN6,
	7:  derivSN7,
	8:  derivSN8,
	9:  derivSN9,
	10: derivSN10,
	11: derivSN11,
	12: derivSN12,
	13: derivSN13,
	14: derivSN14,
	15: derivSN15,
	16: derivSN16,
}

// derivRN4: dudr of nel 4^3 elements.
func derivRN4(d []float64, _ int, u, ur []float64, nel int) {
	for l := 0; l < nel*4; l++ {
		src := u[l*16 : l*16+16]
		// dudr: unit-stride dot products within the plane.
		for j := 0; j < 4; j++ {
			uc := src[j*4 : j*4+4]
			dc := ur[l*16+j*4 : l*16+j*4+4]
			for i := 0; i < 4; i++ {
				di := d[i*4 : i*4+4]
				dc[i] = (di[0] * uc[0]) + (di[1] * uc[1]) + (di[2] * uc[2]) + (di[3] * uc[3])
			}
		}
	}
}

// derivSN4: duds of nel 4^3 elements.
func derivSN4(d []float64, _ int, u, us []float64, nel int) {
	for l := 0; l < nel*4; l++ {
		// duds: stride-n dot products within the plane.
		for j := 0; j < 4; j++ {
			dj := d[j*4 : j*4+4]
			for i := 0; i < 4; i++ {
				col := l*16 + i
				us[col+4*j] = (dj[0] * u[col]) + (dj[1] * u[col+4]) + (dj[2] * u[col+8]) + (dj[3] * u[col+12])
			}
		}
	}
}

// derivRN5: dudr of nel 5^3 elements.
func derivRN5(d []float64, _ int, u, ur []float64, nel int) {
	for l := 0; l < nel*5; l++ {
		src := u[l*25 : l*25+25]
		// dudr: unit-stride dot products within the plane.
		for j := 0; j < 5; j++ {
			uc := src[j*5 : j*5+5]
			dc := ur[l*25+j*5 : l*25+j*5+5]
			for i := 0; i < 5; i++ {
				di := d[i*5 : i*5+5]
				dc[i] = (di[0] * uc[0]) + (di[1] * uc[1]) + (di[2] * uc[2]) + (di[3] * uc[3]) + di[4]*uc[4]
			}
		}
	}
}

// derivSN5: duds of nel 5^3 elements.
func derivSN5(d []float64, _ int, u, us []float64, nel int) {
	for l := 0; l < nel*5; l++ {
		// duds: stride-n dot products within the plane.
		for j := 0; j < 5; j++ {
			dj := d[j*5 : j*5+5]
			for i := 0; i < 5; i++ {
				col := l*25 + i
				us[col+5*j] = (dj[0] * u[col]) + (dj[1] * u[col+5]) + (dj[2] * u[col+10]) + (dj[3] * u[col+15]) + dj[4]*u[col+20]
			}
		}
	}
}

// derivRN6: dudr of nel 6^3 elements.
func derivRN6(d []float64, _ int, u, ur []float64, nel int) {
	for l := 0; l < nel*6; l++ {
		src := u[l*36 : l*36+36]
		// dudr: unit-stride dot products within the plane.
		for j := 0; j < 6; j++ {
			uc := src[j*6 : j*6+6]
			dc := ur[l*36+j*6 : l*36+j*6+6]
			for i := 0; i < 6; i++ {
				di := d[i*6 : i*6+6]
				dc[i] = (di[0] * uc[0]) + (di[1] * uc[1]) + (di[2] * uc[2]) + (di[3] * uc[3]) + di[4]*uc[4] + di[5]*uc[5]
			}
		}
	}
}

// derivSN6: duds of nel 6^3 elements.
func derivSN6(d []float64, _ int, u, us []float64, nel int) {
	for l := 0; l < nel*6; l++ {
		// duds: stride-n dot products within the plane.
		for j := 0; j < 6; j++ {
			dj := d[j*6 : j*6+6]
			for i := 0; i < 6; i++ {
				col := l*36 + i
				us[col+6*j] = (dj[0] * u[col]) + (dj[1] * u[col+6]) + (dj[2] * u[col+12]) + (dj[3] * u[col+18]) + dj[4]*u[col+24] + dj[5]*u[col+30]
			}
		}
	}
}

// derivRN7: dudr of nel 7^3 elements.
func derivRN7(d []float64, _ int, u, ur []float64, nel int) {
	for l := 0; l < nel*7; l++ {
		src := u[l*49 : l*49+49]
		// dudr: unit-stride dot products within the plane.
		for j := 0; j < 7; j++ {
			uc := src[j*7 : j*7+7]
			dc := ur[l*49+j*7 : l*49+j*7+7]
			for i := 0; i < 7; i++ {
				di := d[i*7 : i*7+7]
				dc[i] = (di[0] * uc[0]) + (di[1] * uc[1]) + (di[2] * uc[2]) + (di[3] * uc[3]) + di[4]*uc[4] + di[5]*uc[5] + di[6]*uc[6]
			}
		}
	}
}

// derivSN7: duds of nel 7^3 elements.
func derivSN7(d []float64, _ int, u, us []float64, nel int) {
	for l := 0; l < nel*7; l++ {
		// duds: stride-n dot products within the plane.
		for j := 0; j < 7; j++ {
			dj := d[j*7 : j*7+7]
			for i := 0; i < 7; i++ {
				col := l*49 + i
				us[col+7*j] = (dj[0] * u[col]) + (dj[1] * u[col+7]) + (dj[2] * u[col+14]) + (dj[3] * u[col+21]) + dj[4]*u[col+28] + dj[5]*u[col+35] + dj[6]*u[col+42]
			}
		}
	}
}

// derivRN8: dudr of nel 8^3 elements.
func derivRN8(d []float64, _ int, u, ur []float64, nel int) {
	for l := 0; l < nel*8; l++ {
		src := u[l*64 : l*64+64]
		// dudr: unit-stride dot products within the plane.
		for j := 0; j < 8; j++ {
			uc := src[j*8 : j*8+8]
			dc := ur[l*64+j*8 : l*64+j*8+8]
			for i := 0; i < 8; i++ {
				di := d[i*8 : i*8+8]
				dc[i] = (di[0]*uc[0] + di[4]*uc[4]) + (di[1]*uc[1] + di[5]*uc[5]) + (di[2]*uc[2] + di[6]*uc[6]) + (di[3]*uc[3] + di[7]*uc[7])
			}
		}
	}
}

// derivSN8: duds of nel 8^3 elements.
func derivSN8(d []float64, _ int, u, us []float64, nel int) {
	for l := 0; l < nel*8; l++ {
		// duds: stride-n dot products within the plane.
		for j := 0; j < 8; j++ {
			dj := d[j*8 : j*8+8]
			for i := 0; i < 8; i++ {
				col := l*64 + i
				us[col+8*j] = (dj[0]*u[col] + dj[4]*u[col+32]) + (dj[1]*u[col+8] + dj[5]*u[col+40]) + (dj[2]*u[col+16] + dj[6]*u[col+48]) + (dj[3]*u[col+24] + dj[7]*u[col+56])
			}
		}
	}
}

// derivRN9: dudr of nel 9^3 elements.
func derivRN9(d []float64, _ int, u, ur []float64, nel int) {
	for l := 0; l < nel*9; l++ {
		src := u[l*81 : l*81+81]
		// dudr: unit-stride dot products within the plane.
		for j := 0; j < 9; j++ {
			uc := src[j*9 : j*9+9]
			dc := ur[l*81+j*9 : l*81+j*9+9]
			for i := 0; i < 9; i++ {
				di := d[i*9 : i*9+9]
				dc[i] = (di[0]*uc[0] + di[4]*uc[4]) + (di[1]*uc[1] + di[5]*uc[5]) + (di[2]*uc[2] + di[6]*uc[6]) + (di[3]*uc[3] + di[7]*uc[7]) + di[8]*uc[8]
			}
		}
	}
}

// derivSN9: duds of nel 9^3 elements.
func derivSN9(d []float64, _ int, u, us []float64, nel int) {
	for l := 0; l < nel*9; l++ {
		// duds: stride-n dot products within the plane.
		for j := 0; j < 9; j++ {
			dj := d[j*9 : j*9+9]
			for i := 0; i < 9; i++ {
				col := l*81 + i
				us[col+9*j] = (dj[0]*u[col] + dj[4]*u[col+36]) + (dj[1]*u[col+9] + dj[5]*u[col+45]) + (dj[2]*u[col+18] + dj[6]*u[col+54]) + (dj[3]*u[col+27] + dj[7]*u[col+63]) + dj[8]*u[col+72]
			}
		}
	}
}

// derivRN10: dudr of nel 10^3 elements.
func derivRN10(d []float64, _ int, u, ur []float64, nel int) {
	for l := 0; l < nel*10; l++ {
		src := u[l*100 : l*100+100]
		// dudr: unit-stride dot products within the plane.
		for j := 0; j < 10; j++ {
			uc := src[j*10 : j*10+10]
			dc := ur[l*100+j*10 : l*100+j*10+10]
			for i := 0; i < 10; i++ {
				di := d[i*10 : i*10+10]
				dc[i] = (di[0]*uc[0] + di[4]*uc[4]) + (di[1]*uc[1] + di[5]*uc[5]) + (di[2]*uc[2] + di[6]*uc[6]) + (di[3]*uc[3] + di[7]*uc[7]) + di[8]*uc[8] + di[9]*uc[9]
			}
		}
	}
}

// derivSN10: duds of nel 10^3 elements.
func derivSN10(d []float64, _ int, u, us []float64, nel int) {
	for l := 0; l < nel*10; l++ {
		// duds: stride-n dot products within the plane.
		for j := 0; j < 10; j++ {
			dj := d[j*10 : j*10+10]
			for i := 0; i < 10; i++ {
				col := l*100 + i
				us[col+10*j] = (dj[0]*u[col] + dj[4]*u[col+40]) + (dj[1]*u[col+10] + dj[5]*u[col+50]) + (dj[2]*u[col+20] + dj[6]*u[col+60]) + (dj[3]*u[col+30] + dj[7]*u[col+70]) + dj[8]*u[col+80] + dj[9]*u[col+90]
			}
		}
	}
}

// derivRN11: dudr of nel 11^3 elements.
func derivRN11(d []float64, _ int, u, ur []float64, nel int) {
	for l := 0; l < nel*11; l++ {
		src := u[l*121 : l*121+121]
		// dudr: unit-stride dot products within the plane.
		for j := 0; j < 11; j++ {
			uc := src[j*11 : j*11+11]
			dc := ur[l*121+j*11 : l*121+j*11+11]
			for i := 0; i < 11; i++ {
				di := d[i*11 : i*11+11]
				dc[i] = (di[0]*uc[0] + di[4]*uc[4]) + (di[1]*uc[1] + di[5]*uc[5]) + (di[2]*uc[2] + di[6]*uc[6]) + (di[3]*uc[3] + di[7]*uc[7]) + di[8]*uc[8] + di[9]*uc[9] + di[10]*uc[10]
			}
		}
	}
}

// derivSN11: duds of nel 11^3 elements.
func derivSN11(d []float64, _ int, u, us []float64, nel int) {
	for l := 0; l < nel*11; l++ {
		// duds: stride-n dot products within the plane.
		for j := 0; j < 11; j++ {
			dj := d[j*11 : j*11+11]
			for i := 0; i < 11; i++ {
				col := l*121 + i
				us[col+11*j] = (dj[0]*u[col] + dj[4]*u[col+44]) + (dj[1]*u[col+11] + dj[5]*u[col+55]) + (dj[2]*u[col+22] + dj[6]*u[col+66]) + (dj[3]*u[col+33] + dj[7]*u[col+77]) + dj[8]*u[col+88] + dj[9]*u[col+99] + dj[10]*u[col+110]
			}
		}
	}
}

// derivRN12: dudr of nel 12^3 elements.
func derivRN12(d []float64, _ int, u, ur []float64, nel int) {
	for l := 0; l < nel*12; l++ {
		src := u[l*144 : l*144+144]
		// dudr: unit-stride dot products within the plane.
		for j := 0; j < 12; j++ {
			uc := src[j*12 : j*12+12]
			dc := ur[l*144+j*12 : l*144+j*12+12]
			for i := 0; i < 12; i++ {
				di := d[i*12 : i*12+12]
				dc[i] = (di[0]*uc[0] + di[4]*uc[4] + di[8]*uc[8]) + (di[1]*uc[1] + di[5]*uc[5] + di[9]*uc[9]) + (di[2]*uc[2] + di[6]*uc[6] + di[10]*uc[10]) + (di[3]*uc[3] + di[7]*uc[7] + di[11]*uc[11])
			}
		}
	}
}

// derivSN12: duds of nel 12^3 elements.
func derivSN12(d []float64, _ int, u, us []float64, nel int) {
	for l := 0; l < nel*12; l++ {
		// duds: stride-n dot products within the plane.
		for j := 0; j < 12; j++ {
			dj := d[j*12 : j*12+12]
			for i := 0; i < 12; i++ {
				col := l*144 + i
				us[col+12*j] = (dj[0]*u[col] + dj[4]*u[col+48] + dj[8]*u[col+96]) + (dj[1]*u[col+12] + dj[5]*u[col+60] + dj[9]*u[col+108]) + (dj[2]*u[col+24] + dj[6]*u[col+72] + dj[10]*u[col+120]) + (dj[3]*u[col+36] + dj[7]*u[col+84] + dj[11]*u[col+132])
			}
		}
	}
}

// derivRN13: dudr of nel 13^3 elements.
func derivRN13(d []float64, _ int, u, ur []float64, nel int) {
	for l := 0; l < nel*13; l++ {
		src := u[l*169 : l*169+169]
		// dudr: unit-stride dot products within the plane.
		for j := 0; j < 13; j++ {
			uc := src[j*13 : j*13+13]
			dc := ur[l*169+j*13 : l*169+j*13+13]
			for i := 0; i < 13; i++ {
				di := d[i*13 : i*13+13]
				dc[i] = (di[0]*uc[0] + di[4]*uc[4] + di[8]*uc[8]) + (di[1]*uc[1] + di[5]*uc[5] + di[9]*uc[9]) + (di[2]*uc[2] + di[6]*uc[6] + di[10]*uc[10]) + (di[3]*uc[3] + di[7]*uc[7] + di[11]*uc[11]) + di[12]*uc[12]
			}
		}
	}
}

// derivSN13: duds of nel 13^3 elements.
func derivSN13(d []float64, _ int, u, us []float64, nel int) {
	for l := 0; l < nel*13; l++ {
		// duds: stride-n dot products within the plane.
		for j := 0; j < 13; j++ {
			dj := d[j*13 : j*13+13]
			for i := 0; i < 13; i++ {
				col := l*169 + i
				us[col+13*j] = (dj[0]*u[col] + dj[4]*u[col+52] + dj[8]*u[col+104]) + (dj[1]*u[col+13] + dj[5]*u[col+65] + dj[9]*u[col+117]) + (dj[2]*u[col+26] + dj[6]*u[col+78] + dj[10]*u[col+130]) + (dj[3]*u[col+39] + dj[7]*u[col+91] + dj[11]*u[col+143]) + dj[12]*u[col+156]
			}
		}
	}
}

// derivRN14: dudr of nel 14^3 elements.
func derivRN14(d []float64, _ int, u, ur []float64, nel int) {
	for l := 0; l < nel*14; l++ {
		src := u[l*196 : l*196+196]
		// dudr: unit-stride dot products within the plane.
		for j := 0; j < 14; j++ {
			uc := src[j*14 : j*14+14]
			dc := ur[l*196+j*14 : l*196+j*14+14]
			for i := 0; i < 14; i++ {
				di := d[i*14 : i*14+14]
				dc[i] = (di[0]*uc[0] + di[4]*uc[4] + di[8]*uc[8]) + (di[1]*uc[1] + di[5]*uc[5] + di[9]*uc[9]) + (di[2]*uc[2] + di[6]*uc[6] + di[10]*uc[10]) + (di[3]*uc[3] + di[7]*uc[7] + di[11]*uc[11]) + di[12]*uc[12] + di[13]*uc[13]
			}
		}
	}
}

// derivSN14: duds of nel 14^3 elements.
func derivSN14(d []float64, _ int, u, us []float64, nel int) {
	for l := 0; l < nel*14; l++ {
		// duds: stride-n dot products within the plane.
		for j := 0; j < 14; j++ {
			dj := d[j*14 : j*14+14]
			for i := 0; i < 14; i++ {
				col := l*196 + i
				us[col+14*j] = (dj[0]*u[col] + dj[4]*u[col+56] + dj[8]*u[col+112]) + (dj[1]*u[col+14] + dj[5]*u[col+70] + dj[9]*u[col+126]) + (dj[2]*u[col+28] + dj[6]*u[col+84] + dj[10]*u[col+140]) + (dj[3]*u[col+42] + dj[7]*u[col+98] + dj[11]*u[col+154]) + dj[12]*u[col+168] + dj[13]*u[col+182]
			}
		}
	}
}

// derivRN15: dudr of nel 15^3 elements.
func derivRN15(d []float64, _ int, u, ur []float64, nel int) {
	for l := 0; l < nel*15; l++ {
		src := u[l*225 : l*225+225]
		// dudr: unit-stride dot products within the plane.
		for j := 0; j < 15; j++ {
			uc := src[j*15 : j*15+15]
			dc := ur[l*225+j*15 : l*225+j*15+15]
			for i := 0; i < 15; i++ {
				di := d[i*15 : i*15+15]
				dc[i] = (di[0]*uc[0] + di[4]*uc[4] + di[8]*uc[8]) + (di[1]*uc[1] + di[5]*uc[5] + di[9]*uc[9]) + (di[2]*uc[2] + di[6]*uc[6] + di[10]*uc[10]) + (di[3]*uc[3] + di[7]*uc[7] + di[11]*uc[11]) + di[12]*uc[12] + di[13]*uc[13] + di[14]*uc[14]
			}
		}
	}
}

// derivSN15: duds of nel 15^3 elements.
func derivSN15(d []float64, _ int, u, us []float64, nel int) {
	for l := 0; l < nel*15; l++ {
		// duds: stride-n dot products within the plane.
		for j := 0; j < 15; j++ {
			dj := d[j*15 : j*15+15]
			for i := 0; i < 15; i++ {
				col := l*225 + i
				us[col+15*j] = (dj[0]*u[col] + dj[4]*u[col+60] + dj[8]*u[col+120]) + (dj[1]*u[col+15] + dj[5]*u[col+75] + dj[9]*u[col+135]) + (dj[2]*u[col+30] + dj[6]*u[col+90] + dj[10]*u[col+150]) + (dj[3]*u[col+45] + dj[7]*u[col+105] + dj[11]*u[col+165]) + dj[12]*u[col+180] + dj[13]*u[col+195] + dj[14]*u[col+210]
			}
		}
	}
}

// derivRN16: dudr of nel 16^3 elements.
func derivRN16(d []float64, _ int, u, ur []float64, nel int) {
	for l := 0; l < nel*16; l++ {
		src := u[l*256 : l*256+256]
		// dudr: unit-stride dot products within the plane.
		for j := 0; j < 16; j++ {
			uc := src[j*16 : j*16+16]
			dc := ur[l*256+j*16 : l*256+j*16+16]
			for i := 0; i < 16; i++ {
				di := d[i*16 : i*16+16]
				dc[i] = (di[0]*uc[0] + di[4]*uc[4] + di[8]*uc[8] + di[12]*uc[12]) + (di[1]*uc[1] + di[5]*uc[5] + di[9]*uc[9] + di[13]*uc[13]) + (di[2]*uc[2] + di[6]*uc[6] + di[10]*uc[10] + di[14]*uc[14]) + (di[3]*uc[3] + di[7]*uc[7] + di[11]*uc[11] + di[15]*uc[15])
			}
		}
	}
}

// derivSN16: duds of nel 16^3 elements.
func derivSN16(d []float64, _ int, u, us []float64, nel int) {
	for l := 0; l < nel*16; l++ {
		// duds: stride-n dot products within the plane.
		for j := 0; j < 16; j++ {
			dj := d[j*16 : j*16+16]
			for i := 0; i < 16; i++ {
				col := l*256 + i
				us[col+16*j] = (dj[0]*u[col] + dj[4]*u[col+64] + dj[8]*u[col+128] + dj[12]*u[col+192]) + (dj[1]*u[col+16] + dj[5]*u[col+80] + dj[9]*u[col+144] + dj[13]*u[col+208]) + (dj[2]*u[col+32] + dj[6]*u[col+96] + dj[10]*u[col+160] + dj[14]*u[col+224]) + (dj[3]*u[col+48] + dj[7]*u[col+112] + dj[11]*u[col+176] + dj[15]*u[col+240])
			}
		}
	}
}
