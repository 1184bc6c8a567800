// expAVX2: math.Exp's amd64 routine, lane by lane, including its FMA.
//
// kernels_amd64.s holds the rule that no routine fuses a multiply and an add,
// because the Go loops those routines replace never do. This file is the one
// exception, and it replaces no Go loop: its specification is archExp
// ($GOROOT/src/math/exp_amd64.s), which where math.useFMA holds (AVX and FMA,
// as internal/cpu and GODEBUG report them) runs a branch of VFNMADD231SD and
// VFMADD213SD. expAVX2 is that branch, four lanes wide, with the same fused
// instructions in the same order; elsewhere math.Exp runs separately rounded
// products instead, and expSlice does not call this routine (hasFMA,
// kernels_amd64.go).
// See DESIGN.md "Kernel architecture", the libm contract.

#include "textflag.h"

#define VEC4(sym, off, val) \
	DATA sym<>+off(SB)/8, val; \
	DATA sym<>+off+8(SB)/8, val; \
	DATA sym<>+off+16(SB)/8, val; \
	DATA sym<>+off+24(SB)/8, val

#define INT4(sym, off, val) \
	DATA sym<>+off(SB)/4, val; \
	DATA sym<>+off+4(SB)/4, val; \
	DATA sym<>+off+8(SB)/4, val; \
	DATA sym<>+off+12(SB)/4, val

// The literals of exp_amd64.s (so the assembler rounds them to the same
// bits), each a 32-byte vector, then the exponent bias as an int32 vector.
VEC4(expconst, 0, $7.09782712893384e+02)     // Overflow
VEC4(expconst, 32, $-1.7976931348623157e+308) // -MaxFloat64
VEC4(expconst, 64, $1.4426950408889634073599246810018920)       // LOG2E
VEC4(expconst, 96, $0.69314718055966295651160180568695068359375) // LN2U
VEC4(expconst, 128, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
VEC4(expconst, 160, $0.0625)
VEC4(expconst, 192, $2.4801587301587301587e-5)
VEC4(expconst, 224, $1.9841269841269841270e-4)
VEC4(expconst, 256, $1.3888888888888888889e-3)
VEC4(expconst, 288, $8.3333333333333333333e-3)
VEC4(expconst, 320, $4.1666666666666666667e-2)
VEC4(expconst, 352, $1.6666666666666666667e-1)
VEC4(expconst, 384, $0.5)
VEC4(expconst, 416, $1.0)
VEC4(expconst, 448, $2.0)
INT4(expconst, 480, $0x3FF)
GLOBL expconst<>(SB), RODATA|NOPTR, $496

#define EXP_OVERFLOW expconst<>+0(SB)
#define EXP_NEGMAX expconst<>+32(SB)
#define EXP_LOG2E expconst<>+64(SB)
#define EXP_LN2U expconst<>+96(SB)
#define EXP_LN2L expconst<>+128(SB)
#define EXP_SIXTEENTH expconst<>+160(SB)
#define EXP_C8 expconst<>+192(SB)
#define EXP_C7 expconst<>+224(SB)
#define EXP_C6 expconst<>+256(SB)
#define EXP_C5 expconst<>+288(SB)
#define EXP_C4 expconst<>+320(SB)
#define EXP_C3 expconst<>+352(SB)
#define EXP_HALF expconst<>+384(SB)
#define EXP_ONE expconst<>+416(SB)
#define EXP_TWO expconst<>+448(SB)
#define EXP_BIAS expconst<>+480(SB)

// func expAVX2(dst, x *float64, n int) (done int)
//
// archExp's FMA branch on four lanes: k = round(LOG2E·x) by VCVTPD2DQ (the
// rounding CVTSD2SL does, and the same integer-indefinite result out of
// int32 range), x − k·LN2U and − k·LN2L fused, ×1/16, the Taylor chain in
// VFMADD213PD, four squarings of the form x·(2+x), the last fused with +1,
// and the ldexp multiply by the float64 whose bits are (k+0x3FF)<<52. Groups
// of four are taken while n allows; the routine stops before a group with a
// lane archExp finishes elsewhere — NaN or ±Inf, x above Overflow, or a
// biased exponent k+0x3FF of 0 or below (archExp's denormal multiply, or its
// +0) — and returns how many elements it wrote. The one biased exponent above
// 0x7FE that x ≤ Overflow allows is 0x7FF (x from about 709.44): archExp
// returns +Inf there, and so does the lane, whose multiplier's bits are
// +Inf's. X15 holds int32 zeros.
//
// A group is loaded lane by lane: gmm.posterior stores its k shifted logits
// one at a time just before the call, and a 32-byte load of four 8-byte
// stores still in flight cannot be forwarded and waits for them (one GMM fit
// took 700 against 645 ms that way; a bulk Exp runs at the same speed either
// way).
TEXT ·expAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	VPXOR X15, X15, X15

exploop:
	CMPQ CX, $4
	JL   expdone
	VMOVSD (SI)(AX*8), X0
	VMOVHPD 8(SI)(AX*8), X0, X0
	VMOVSD 16(SI)(AX*8), X1
	VMOVHPD 24(SI)(AX*8), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	VCMPPD $0x12, EXP_OVERFLOW, Y0, Y8
	VCMPPD $0x1D, EXP_NEGMAX, Y0, Y9
	VANDPD Y9, Y8, Y8
	VMULPD EXP_LOG2E, Y0, Y1
	VCVTPD2DQY Y1, X2
	VPADDD EXP_BIAS, X2, X3
	VPCMPGTD X15, X3, X4
	VMOVMSKPS X4, BX
	VMOVMSKPD Y8, DX
	ANDQ BX, DX
	CMPQ DX, $15
	JNE  expdone
	VCVTDQ2PD X2, Y1
	VFNMADD231PD EXP_LN2U, Y1, Y0
	VFNMADD231PD EXP_LN2L, Y1, Y0
	VMULPD EXP_SIXTEENTH, Y0, Y0
	VMOVUPD EXP_C8, Y1
	VFMADD213PD EXP_C7, Y0, Y1
	VFMADD213PD EXP_C6, Y0, Y1
	VFMADD213PD EXP_C5, Y0, Y1
	VFMADD213PD EXP_C4, Y0, Y1
	VFMADD213PD EXP_C3, Y0, Y1
	VFMADD213PD EXP_HALF, Y0, Y1
	VFMADD213PD EXP_ONE, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD EXP_TWO, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD EXP_TWO, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD EXP_TWO, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD EXP_TWO, Y0, Y1
	VFMADD213PD EXP_ONE, Y1, Y0
	VPMOVSXDQ X3, Y5
	VPSLLQ $52, Y5, Y5
	VMULPD Y5, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	SUBQ $4, CX
	JMP  exploop

expdone:
	MOVQ AX, done+24(FP)
	VZEROUPPER
	RET
