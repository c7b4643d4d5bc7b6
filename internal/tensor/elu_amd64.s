// AVX2+FMA kernels for the float64 ELU map (elu.go).
//
// eluBlock64 replays, four lanes at a time, the FMA branch of the Go
// runtime's own math.archExp (src/math/exp_amd64.s): the same
// instructions on the same constants in the same order, so each lane's
// exp(v) is bit-for-bit the scalar math.Exp(v), and the trailing -1 is
// the same subtraction the scalar math.Exp(v)-1 performs. The decimal
// constants below are copied from exp_amd64.s and assembled by the same
// parser, so their bits match.
//
// archExp leaves its FMA fast path for NaN/±Inf (notFinite), for
// arguments past the overflow bound, and when 2^k needs a denormal or
// underflows (k <= -1023). The ELU only evaluates the exponential for
// v <= 0, where those cases are NaN and v < ~-708.4; the kernel stops at
// the first 4-lane group holding a NaN or a v < -708 and returns the
// count done, and the caller finishes that group through math.Exp.

#include "textflag.h"

#define LOG2E 1.4426950408889634073599246810018920
#define LN2U 0.69314718055966295651160180568695068359375
#define LN2L 0.28235290563031577122588448175013436025525412068e-12

#define BCAST4(name, val) \
	DATA name<>+0(SB)/8, val; \
	DATA name<>+8(SB)/8, val; \
	DATA name<>+16(SB)/8, val; \
	DATA name<>+24(SB)/8, val; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

BCAST4(eluLog2e64, $LOG2E)
BCAST4(eluLn2U64, $LN2U)
BCAST4(eluLn2L64, $LN2L)
BCAST4(eluSixteenth64, $0.0625)
BCAST4(eluLimit64, $-708.0)
BCAST4(eluHalf64, $0.5)
BCAST4(eluOne64, $1.0)
BCAST4(eluTwo64, $2.0)
BCAST4(eluBias64, $0x3ff)
BCAST4(eluT24, $1.6666666666666666667e-1)
BCAST4(eluT32, $4.1666666666666666667e-2)
BCAST4(eluT40, $8.3333333333333333333e-3)
BCAST4(eluT48, $1.3888888888888888889e-3)
BCAST4(eluT56, $1.9841269841269841270e-4)
BCAST4(eluT64, $2.4801587301587301587e-5)

// func eluBlock64(n int64, x, y *float64) int64
//
// n must be a positive multiple of 4. Registers: Y0 v (live to the final
// blend), Y1 v·log2e then fk, X2 k as int32, Y3 the reduced argument
// then the result, Y4 the polynomial, Y5 the 2^k bits, Y6 masks.
// Y8-Y15 hold the constants used outside the Horner chain.
TEXT ·eluBlock64(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), AX
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	XORQ CX, CX

	VMOVUPD eluOne64<>(SB), Y8
	VMOVUPD eluTwo64<>(SB), Y9
	VMOVUPD eluSixteenth64<>(SB), Y10
	VMOVUPD eluLn2L64<>(SB), Y11
	VMOVUPD eluLn2U64<>(SB), Y12
	VMOVUPD eluLog2e64<>(SB), Y13
	VMOVUPD eluLimit64<>(SB), Y14
	VXORPD  Y15, Y15, Y15

loop:
	VMOVUPD (SI)(CX*8), Y0

	// Stop where !(v >= -708): a NaN or a v archExp leaves the fast path on.
	VCMPPD    $9, Y14, Y0, Y6
	VMOVMSKPD Y6, DX
	TESTQ     DX, DX
	JNZ       done

	// k = round(v·log2e) (MXCSR nearest-even, as CVTSD2SL), fk = float64(k)
	VMULPD     Y13, Y0, Y1
	VCVTPD2DQY Y1, X2
	VCVTDQ2PD  X2, Y1

	// r = (v - fk·ln2u - fk·ln2l) / 16, both reductions fused
	VMOVAPD      Y0, Y3
	VFNMADD231PD Y12, Y1, Y3
	VFNMADD231PD Y11, Y1, Y3
	VMULPD       Y10, Y3, Y3

	// Taylor series of (e^r - 1)/r by Horner, fused
	VMOVUPD     eluT64<>(SB), Y4
	VFMADD213PD eluT56<>(SB), Y3, Y4
	VFMADD213PD eluT48<>(SB), Y3, Y4
	VFMADD213PD eluT40<>(SB), Y3, Y4
	VFMADD213PD eluT32<>(SB), Y3, Y4
	VFMADD213PD eluT24<>(SB), Y3, Y4
	VFMADD213PD eluHalf64<>(SB), Y3, Y4
	VFMADD213PD Y8, Y3, Y4

	// e^(16r) - 1 by four squarings t = t·(t+2); the last fused with +1
	VMULPD      Y4, Y3, Y3
	VADDPD      Y9, Y3, Y4
	VMULPD      Y4, Y3, Y3
	VADDPD      Y9, Y3, Y4
	VMULPD      Y4, Y3, Y3
	VADDPD      Y9, Y3, Y4
	VMULPD      Y4, Y3, Y3
	VADDPD      Y9, Y3, Y4
	VFMADD213PD Y8, Y4, Y3

	// ×2^k built in the exponent field, then the ELU's -1
	VPMOVSXDQ X2, Y5
	VPADDQ    eluBias64<>(SB), Y5, Y5
	VPSLLQ    $52, Y5, Y5
	VMULPD    Y5, Y3, Y3
	VSUBPD    Y8, Y3, Y3

	// positive lanes select the identity: e = v > 0 ? v : e
	VCMPPD    $14, Y15, Y0, Y6
	VBLENDVPD Y6, Y0, Y3, Y3
	VMOVUPD   Y3, (DI)(CX*8)

	ADDQ $4, CX
	CMPQ CX, AX
	JLT  loop

done:
	MOVQ CX, ret+24(FP)
	VZEROUPPER
	RET

// func eluBackBlock64(n int64, y, dy, dx *float64)
//
// n must be a positive multiple of 4. dx = y > 0 ? dy : dy·(y+1), with
// the add and multiply in the scalar expression's operand order so even
// NaN payloads propagate as in Go.
TEXT ·eluBackBlock64(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), AX
	MOVQ y+8(FP), SI
	MOVQ dy+16(FP), BX
	MOVQ dx+24(FP), DI
	XORQ CX, CX

	VMOVUPD eluOne64<>(SB), Y8
	VXORPD  Y15, Y15, Y15

bloop:
	VMOVUPD   (SI)(CX*8), Y0
	VMOVUPD   (BX)(CX*8), Y1
	VADDPD    Y8, Y0, Y2
	VMULPD    Y2, Y1, Y2
	VCMPPD    $14, Y15, Y0, Y3
	VBLENDVPD Y3, Y1, Y2, Y2
	VMOVUPD   Y2, (DI)(CX*8)

	ADDQ $4, CX
	CMPQ CX, AX
	JLT  bloop

	VZEROUPPER
	RET
