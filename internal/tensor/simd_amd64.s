// AVX2+FMA and AVX-512 microkernels for the packed cache-blocked GEMM
// tier.
//
// All kernels share one shape: a strided MRx(NR) register tile of C
// accumulated over kc inner-dimension steps. Per step the kernel loads
// the NR-wide B vector (a ymm pair, or one zmm) from the packed B panel
// (advancing bstride bytes), broadcasts one A element per tile row
// (advancing astride bytes), and issues one fused multiply-add per tile
// row and vector. The per-element summation
// order is plain ascending k with fused rounding — a function of the
// element's row, column panel, and the Kc split alone, never of the row
// tile it was computed in, the chunk boundaries, or the thread count.
//
// The strides make one kernel serve all three GEMM forms:
//   MatMul    dst = a·b    a rows (astride 8), packed B panel (bstride 64)
//   MatMulABT dst = a·bᵀ   a rows (astride 8), transposed-packed panel
//   MatMulATB dst = aᵀ·b   a columns (astride = 8*lda), raw b rows
//                          (bstride = 8*ldb) — packing degenerates to
//                          the natural layout
//
// acc != 0 loads the existing C tile instead of zeroing it, which is how
// Kc blocks beyond the first resume the accumulation without changing
// the per-element order.

#include "textflag.h"

// func dgemmTile4(kc int64, a0, a1, a2, a3 *float64, astride int64, bp *float64, bstride int64, c0, c1, c2, c3 *float64, acc int64)
TEXT ·dgemmTile4(SB), NOSPLIT, $0-104
	MOVQ kc+0(FP), AX
	MOVQ a0+8(FP), R8
	MOVQ a1+16(FP), R9
	MOVQ a2+24(FP), R10
	MOVQ a3+32(FP), R11
	MOVQ astride+40(FP), R12
	MOVQ bp+48(FP), BX
	MOVQ bstride+56(FP), R13
	MOVQ acc+96(FP), DX

	TESTQ DX, DX
	JNZ   load4

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	JMP    body4

load4:
	MOVQ c0+64(FP), CX
	VMOVUPD (CX), Y0
	VMOVUPD 32(CX), Y1
	MOVQ c1+72(FP), CX
	VMOVUPD (CX), Y2
	VMOVUPD 32(CX), Y3
	MOVQ c2+80(FP), CX
	VMOVUPD (CX), Y4
	VMOVUPD 32(CX), Y5
	MOVQ c3+88(FP), CX
	VMOVUPD (CX), Y6
	VMOVUPD 32(CX), Y7

body4:
	TESTQ AX, AX
	JZ    done4

loop4:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9

	VBROADCASTSD (R8), Y10
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1

	VBROADCASTSD (R9), Y11
	VFMADD231PD Y8, Y11, Y2
	VFMADD231PD Y9, Y11, Y3

	VBROADCASTSD (R10), Y12
	VFMADD231PD Y8, Y12, Y4
	VFMADD231PD Y9, Y12, Y5

	VBROADCASTSD (R11), Y13
	VFMADD231PD Y8, Y13, Y6
	VFMADD231PD Y9, Y13, Y7

	ADDQ R13, BX
	ADDQ R12, R8
	ADDQ R12, R9
	ADDQ R12, R10
	ADDQ R12, R11
	DECQ AX
	JNZ  loop4

done4:
	MOVQ c0+64(FP), CX
	VMOVUPD Y0, (CX)
	VMOVUPD Y1, 32(CX)
	MOVQ c1+72(FP), CX
	VMOVUPD Y2, (CX)
	VMOVUPD Y3, 32(CX)
	MOVQ c2+80(FP), CX
	VMOVUPD Y4, (CX)
	VMOVUPD Y5, 32(CX)
	MOVQ c3+88(FP), CX
	VMOVUPD Y6, (CX)
	VMOVUPD Y7, 32(CX)
	VZEROUPPER
	RET

// func dgemmTile1(kc int64, a0 *float64, astride int64, bp *float64, bstride int64, c0 *float64, acc int64)
//
// Single-row variant with the exact per-element operation sequence of
// dgemmTile4's rows, so a row's bits are identical whether it lands in a
// full tile or a remainder row.
TEXT ·dgemmTile1(SB), NOSPLIT, $0-56
	MOVQ kc+0(FP), AX
	MOVQ a0+8(FP), R8
	MOVQ astride+16(FP), R12
	MOVQ bp+24(FP), BX
	MOVQ bstride+32(FP), R13
	MOVQ acc+48(FP), DX

	TESTQ DX, DX
	JNZ   load1

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	JMP    body1

load1:
	MOVQ c0+40(FP), CX
	VMOVUPD (CX), Y0
	VMOVUPD 32(CX), Y1

body1:
	TESTQ AX, AX
	JZ    done1

loop1:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	VBROADCASTSD (R8), Y10
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1
	ADDQ R13, BX
	ADDQ R12, R8
	DECQ AX
	JNZ  loop1

done1:
	MOVQ c0+40(FP), CX
	VMOVUPD Y0, (CX)
	VMOVUPD Y1, 32(CX)
	VZEROUPPER
	RET

// func dgemmTile8Z(kc int64, a *float64, arow, astride int64, bp *float64, bstride int64, c *float64, crow int64, acc int64)
//
// An 8-row × 8-column tile of C, one zmm accumulator per row, over kc
// inner-dimension steps. Tile row r reads A at a + r·arow + k·astride
// (bytes) and writes C at c + r·crow; the B panel advances bstride bytes
// per k step. Per step the kernel loads one 8-wide B vector, and per row
// broadcasts a_r[k] and issues c_r += a_r[k]·b fused, in ascending k —
// dgemmTile4's per-row sequence, operand for operand. The broadcast is a
// separate load rather than an embedded {1to8} FMA operand because the
// embedded form takes a as the third source, and when a and b are both
// NaN the FMA returns the earlier source's payload: the separate
// broadcast keeps the AVX2 operand order, so even NaN payloads match.
// acc != 0 resumes from the stored C tile.
//
// The row strides make one kernel serve the three GEMM forms:
//   MatMul, MatMulPacked, MatMulABT: arow = 8·lda, astride = 8
//   MatMulATB (a columns as rows):   arow = 8,     astride = 8·lda
TEXT ·dgemmTile8Z(SB), NOSPLIT, $0-72
	MOVQ kc+0(FP), AX
	MOVQ a+8(FP), R8
	MOVQ arow+16(FP), R9
	MOVQ astride+24(FP), R12
	MOVQ bp+32(FP), BX
	MOVQ bstride+40(FP), R13
	MOVQ c+48(FP), CX
	MOVQ crow+56(FP), SI

	// Rows 0-3 address from R8, rows 4-7 from R11 = a + 4·arow, with
	// index registers arow (R9) and 3·arow (R10).
	LEAQ (R9)(R9*2), R10
	LEAQ (R8)(R9*4), R11
	// C rows likewise: CX for rows 0-3, DI for rows 4-7; 3·crow in DX.
	LEAQ (SI)(SI*2), DX
	LEAQ (CX)(SI*4), DI

	CMPQ acc+64(FP), $0
	JNE  load8

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	JMP    body8

load8:
	VMOVUPD (CX), Z0
	VMOVUPD (CX)(SI*1), Z1
	VMOVUPD (CX)(SI*2), Z2
	VMOVUPD (CX)(DX*1), Z3
	VMOVUPD (DI), Z4
	VMOVUPD (DI)(SI*1), Z5
	VMOVUPD (DI)(SI*2), Z6
	VMOVUPD (DI)(DX*1), Z7

body8:
	TESTQ AX, AX
	JZ    done8

loop8:
	VMOVUPD (BX), Z8
	VBROADCASTSD (R8), Z9
	VFMADD231PD  Z8, Z9, Z0
	VBROADCASTSD (R8)(R9*1), Z10
	VFMADD231PD  Z8, Z10, Z1
	VBROADCASTSD (R8)(R9*2), Z9
	VFMADD231PD  Z8, Z9, Z2
	VBROADCASTSD (R8)(R10*1), Z10
	VFMADD231PD  Z8, Z10, Z3
	VBROADCASTSD (R11), Z9
	VFMADD231PD  Z8, Z9, Z4
	VBROADCASTSD (R11)(R9*1), Z10
	VFMADD231PD  Z8, Z10, Z5
	VBROADCASTSD (R11)(R9*2), Z9
	VFMADD231PD  Z8, Z9, Z6
	VBROADCASTSD (R11)(R10*1), Z10
	VFMADD231PD  Z8, Z10, Z7

	ADDQ R13, BX
	ADDQ R12, R8
	ADDQ R12, R11
	DECQ AX
	JNZ  loop8

done8:
	VMOVUPD Z0, (CX)
	VMOVUPD Z1, (CX)(SI*1)
	VMOVUPD Z2, (CX)(SI*2)
	VMOVUPD Z3, (CX)(DX*1)
	VMOVUPD Z4, (DI)
	VMOVUPD Z5, (DI)(SI*1)
	VMOVUPD Z6, (DI)(SI*2)
	VMOVUPD Z7, (DI)(DX*1)
	VZEROUPPER
	RET

// func sgemmTile4(kc int64, a0, a1, a2, a3 *float32, astride int64, bp *float32, bstride int64, c0, c1, c2, c3 *float32, acc int64)
//
// float32 twin: NR = 16 lanes (two 8-wide ymm vectors per tile row).
TEXT ·sgemmTile4(SB), NOSPLIT, $0-104
	MOVQ kc+0(FP), AX
	MOVQ a0+8(FP), R8
	MOVQ a1+16(FP), R9
	MOVQ a2+24(FP), R10
	MOVQ a3+32(FP), R11
	MOVQ astride+40(FP), R12
	MOVQ bp+48(FP), BX
	MOVQ bstride+56(FP), R13
	MOVQ acc+96(FP), DX

	TESTQ DX, DX
	JNZ   sload4

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	JMP    sbody4

sload4:
	MOVQ c0+64(FP), CX
	VMOVUPS (CX), Y0
	VMOVUPS 32(CX), Y1
	MOVQ c1+72(FP), CX
	VMOVUPS (CX), Y2
	VMOVUPS 32(CX), Y3
	MOVQ c2+80(FP), CX
	VMOVUPS (CX), Y4
	VMOVUPS 32(CX), Y5
	MOVQ c3+88(FP), CX
	VMOVUPS (CX), Y6
	VMOVUPS 32(CX), Y7

sbody4:
	TESTQ AX, AX
	JZ    sdone4

sloop4:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9

	VBROADCASTSS (R8), Y10
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1

	VBROADCASTSS (R9), Y11
	VFMADD231PS Y8, Y11, Y2
	VFMADD231PS Y9, Y11, Y3

	VBROADCASTSS (R10), Y12
	VFMADD231PS Y8, Y12, Y4
	VFMADD231PS Y9, Y12, Y5

	VBROADCASTSS (R11), Y13
	VFMADD231PS Y8, Y13, Y6
	VFMADD231PS Y9, Y13, Y7

	ADDQ R13, BX
	ADDQ R12, R8
	ADDQ R12, R9
	ADDQ R12, R10
	ADDQ R12, R11
	DECQ AX
	JNZ  sloop4

sdone4:
	MOVQ c0+64(FP), CX
	VMOVUPS Y0, (CX)
	VMOVUPS Y1, 32(CX)
	MOVQ c1+72(FP), CX
	VMOVUPS Y2, (CX)
	VMOVUPS Y3, 32(CX)
	MOVQ c2+80(FP), CX
	VMOVUPS Y4, (CX)
	VMOVUPS Y5, 32(CX)
	MOVQ c3+88(FP), CX
	VMOVUPS Y6, (CX)
	VMOVUPS Y7, 32(CX)
	VZEROUPPER
	RET

// func sgemmTile1(kc int64, a0 *float32, astride int64, bp *float32, bstride int64, c0 *float32, acc int64)
TEXT ·sgemmTile1(SB), NOSPLIT, $0-56
	MOVQ kc+0(FP), AX
	MOVQ a0+8(FP), R8
	MOVQ astride+16(FP), R12
	MOVQ bp+24(FP), BX
	MOVQ bstride+32(FP), R13
	MOVQ acc+48(FP), DX

	TESTQ DX, DX
	JNZ   sload1

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	JMP    sbody1

sload1:
	MOVQ c0+40(FP), CX
	VMOVUPS (CX), Y0
	VMOVUPS 32(CX), Y1

sbody1:
	TESTQ AX, AX
	JZ    sdone1

sloop1:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	VBROADCASTSS (R8), Y10
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1
	ADDQ R13, BX
	ADDQ R12, R8
	DECQ AX
	JNZ  sloop1

sdone1:
	MOVQ c0+40(FP), CX
	VMOVUPS Y0, (CX)
	VMOVUPS Y1, 32(CX)
	VZEROUPPER
	RET

// func cpuidRaw(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidRaw(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
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
