//go:build amd64 && !semnoasm

#include "textflag.h"

// func mxmAVX2Asm(a *float64, m int, b *float64, k int, c *float64, n int)
//
// C (m x n) = A (m x k) * B (k x n), row-major. Every C element is
// computed on its own: its accumulator lane starts at +0 and adds
// A[i][l]*B[l][j] for l = 0, 1, ..., k-1 with a separate multiply and add
// (no FMA), so each element is bit-identical to the scalar basic kernel's
// left-to-right reduction, whichever block computes it.
//
// With m >= 4 and n >= 4 the output is covered by register blocks of
// four rows: 4 x 8 blocks (eight independent accumulators, each pair of
// B-row loads reused across four broadcasts of A), then 4 x 4 blocks for
// the columns the 8-wide blocks leave. The last 4-wide column block is
// clamped to end at n, and so is the last row block when three rows are
// left: a clamped block recomputes a few elements of its neighbour, with
// the same bits, instead of running a scalar tail, and nothing is read or
// written past A, B or C. One or two leftover rows, and every row of a
// shape with m < 4 or n < 4, run one row at a time, 8, 4, then 1 wide.
//
// Register map:
//   DX = B base               R8 = m          R10 = n
//   R11 = k*8 (A row stride)  R12 = n*8 (B/C row stride)
//   R9 = 3*k*8 (blocked path) or k (one-row path)
//   R13 = row index i         R14 = column index j
//   SI = A row i              DI = C row i
//   CX = A cursor             BX = B cursor    R15 = reduction counter
//   AX = scratch
//   Y0..Y7 = accumulators (4 x 8: row r at Y(2r), Y(2r+1))
//   Y8, Y9 = B vectors        Y10..Y13 = broadcasts and products
TEXT ·mxmAVX2Asm(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), SI
	MOVQ m+8(FP), R8
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), R9
	MOVQ c+32(FP), DI
	MOVQ n+40(FP), R10
	MOVQ R9, R11
	SHLQ $3, R11
	MOVQ R10, R12
	SHLQ $3, R12
	XORQ R13, R13
	CMPQ R8, $4
	JLT  rowloop
	CMPQ R10, $4
	JLT  rowloop
	LEAQ (R11)(R11*2), R9

blockrow:
	// Three rows left: clamp the last row block to end at m. One or two
	// left: the one-row path is cheaper than a whole recomputed block.
	MOVQ R13, AX
	ADDQ $4, AX
	CMPQ AX, R8
	JLE  blockrowset
	DECQ AX
	CMPQ AX, R8
	JNE  rowtail
	MOVQ R8, R13
	SUBQ $4, R13
	JMP  blockrowset

rowtail:
	// SI and DI still hold row i-4, the last full block's.
	MOVQ k+24(FP), R9
	LEAQ (SI)(R11*4), SI
	LEAQ (DI)(R12*4), DI
	JMP  rowloop

blockrowset:
	MOVQ R13, AX
	IMULQ R11, AX
	MOVQ a+0(FP), SI
	ADDQ AX, SI
	MOVQ R13, AX
	IMULQ R12, AX
	MOVQ c+32(FP), DI
	ADDQ AX, DI
	XORQ R14, R14

j8block:
	MOVQ R14, AX
	ADDQ $8, AX
	CMPQ AX, R10
	JG   j4block
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, CX
	LEAQ (DX)(R14*8), BX
	MOVQ k+24(FP), R15
	PCALIGN $32

l48:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	VBROADCASTSD (CX), Y10
	VMULPD  Y8, Y10, Y11
	VADDPD  Y11, Y0, Y0
	VMULPD  Y9, Y10, Y10
	VADDPD  Y10, Y1, Y1
	VBROADCASTSD (CX)(R11*1), Y12
	VMULPD  Y8, Y12, Y13
	VADDPD  Y13, Y2, Y2
	VMULPD  Y9, Y12, Y12
	VADDPD  Y12, Y3, Y3
	VBROADCASTSD (CX)(R11*2), Y10
	VMULPD  Y8, Y10, Y11
	VADDPD  Y11, Y4, Y4
	VMULPD  Y9, Y10, Y10
	VADDPD  Y10, Y5, Y5
	VBROADCASTSD (CX)(R9*1), Y12
	VMULPD  Y8, Y12, Y13
	VADDPD  Y13, Y6, Y6
	VMULPD  Y9, Y12, Y12
	VADDPD  Y12, Y7, Y7
	ADDQ $8, CX
	ADDQ R12, BX
	DECQ R15
	JNZ  l48

	LEAQ (DI)(R14*8), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, (AX)(R12*1)
	VMOVUPD Y3, 32(AX)(R12*1)
	VMOVUPD Y4, (AX)(R12*2)
	VMOVUPD Y5, 32(AX)(R12*2)
	ADDQ R12, AX
	VMOVUPD Y6, (AX)(R12*2)
	VMOVUPD Y7, 32(AX)(R12*2)
	ADDQ $8, R14
	JMP  j8block

j4block:
	CMPQ R14, R10
	JGE  blocknext
	// Clamp the last 4-wide column block to end at n.
	MOVQ R14, AX
	ADDQ $4, AX
	CMPQ AX, R10
	JLE  j4blockset
	MOVQ R10, R14
	SUBQ $4, R14

j4blockset:
	VXORPD Y0, Y0, Y0
	VXORPD Y2, Y2, Y2
	VXORPD Y4, Y4, Y4
	VXORPD Y6, Y6, Y6
	MOVQ SI, CX
	LEAQ (DX)(R14*8), BX
	MOVQ k+24(FP), R15
	PCALIGN $32

l44:
	VMOVUPD (BX), Y8
	VBROADCASTSD (CX), Y10
	VMULPD  Y8, Y10, Y10
	VADDPD  Y10, Y0, Y0
	VBROADCASTSD (CX)(R11*1), Y11
	VMULPD  Y8, Y11, Y11
	VADDPD  Y11, Y2, Y2
	VBROADCASTSD (CX)(R11*2), Y12
	VMULPD  Y8, Y12, Y12
	VADDPD  Y12, Y4, Y4
	VBROADCASTSD (CX)(R9*1), Y13
	VMULPD  Y8, Y13, Y13
	VADDPD  Y13, Y6, Y6
	ADDQ $8, CX
	ADDQ R12, BX
	DECQ R15
	JNZ  l44

	LEAQ (DI)(R14*8), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y2, (AX)(R12*1)
	VMOVUPD Y4, (AX)(R12*2)
	ADDQ R12, AX
	VMOVUPD Y6, (AX)(R12*2)
	ADDQ $4, R14
	JMP  j4block

blocknext:
	ADDQ $4, R13
	CMPQ R13, R8
	JLT  blockrow
	JMP  done

rowloop:
	CMPQ R13, R8
	JGE  done
	XORQ R14, R14

j8loop:
	MOVQ R14, AX
	ADDQ $8, AX
	CMPQ AX, R10
	JG   j4loop
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ SI, CX
	LEAQ (DX)(R14*8), BX
	MOVQ R9, R15

l8loop:
	VBROADCASTSD (CX), Y2
	VMOVUPD (BX), Y3
	VMOVUPD 32(BX), Y4
	VMULPD  Y3, Y2, Y3
	VADDPD  Y3, Y0, Y0
	VMULPD  Y4, Y2, Y4
	VADDPD  Y4, Y1, Y1
	ADDQ $8, CX
	ADDQ R12, BX
	DECQ R15
	JNZ  l8loop

	LEAQ (DI)(R14*8), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	ADDQ $8, R14
	JMP  j8loop

j4loop:
	MOVQ R14, AX
	ADDQ $4, AX
	CMPQ AX, R10
	JG   j1loop
	VXORPD Y0, Y0, Y0
	MOVQ SI, CX
	LEAQ (DX)(R14*8), BX
	MOVQ R9, R15

l4loop:
	VBROADCASTSD (CX), Y2
	VMOVUPD (BX), Y3
	VMULPD  Y3, Y2, Y3
	VADDPD  Y3, Y0, Y0
	ADDQ $8, CX
	ADDQ R12, BX
	DECQ R15
	JNZ  l4loop

	LEAQ (DI)(R14*8), AX
	VMOVUPD Y0, (AX)
	ADDQ $4, R14
	JMP  j4loop

j1loop:
	CMPQ R14, R10
	JGE  rownext
	VXORPD X0, X0, X0
	MOVQ SI, CX
	LEAQ (DX)(R14*8), BX
	MOVQ R9, R15

l1loop:
	VMOVSD (CX), X2
	VMOVSD (BX), X3
	VMULSD X3, X2, X3
	VADDSD X3, X0, X0
	ADDQ $8, CX
	ADDQ R12, BX
	DECQ R15
	JNZ  l1loop

	LEAQ (DI)(R14*8), AX
	VMOVSD X0, (AX)
	INCQ R14
	JMP  j1loop

rownext:
	ADDQ R11, SI
	ADDQ R12, DI
	INCQ R13
	JMP  rowloop

done:
	VZEROUPPER
	RET

// func cpuidex(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
