// AVX2 routines behind the matmul kernels, the same-shape elementwise loop
// and allFinite (see kernels_amd64.go for the Go declarations and DESIGN.md
// "Kernel architecture" for the contract).
//
// The rule every routine here obeys: an output element sees exactly the
// operation sequence of the Go loop it replaces. Vector lanes (and unrolled
// vectors) only ever hold *independent* outputs; within one output the
// multiplies and adds are separate IEEE operations in source order — there
// is no FMA anywhere in this file, because a fused multiply-add skips the
// rounding of the product and would change low-order bits. Tails use the
// scalar VEX forms of the same instructions, so a lane and a tail element
// round identically.

#include "textflag.h"

// The four same-shape elementwise routines: dst[i] = a[i] OP b[i], i in
// [0,n). dst may be a or b themselves (each vector is loaded before it is
// stored). VOP/SOP are the packed and scalar forms of one instruction; the
// operand order is a OP b, which matters for SUB and DIV. (The macro sits
// above the first TEXT so that vet's asmdecl does not read its body as part
// of some other function's frame.)
#define VECBIN(VOP, SOP, L4, L1, DONE) \
	MOVQ dst+0(FP), DI; \
	MOVQ a+8(FP), SI; \
	MOVQ b+16(FP), DX; \
	MOVQ n+24(FP), CX; \
	XORQ AX, AX; \
L4: \
	CMPQ CX, $4; \
	JL   L1; \
	VMOVUPD (SI)(AX*1), Y0; \
	VOP  (DX)(AX*1), Y0, Y0; \
	VMOVUPD Y0, (DI)(AX*1); \
	ADDQ $32, AX; \
	SUBQ $4, CX; \
	JMP  L4; \
L1: \
	TESTQ CX, CX; \
	JZ   DONE; \
	VMOVSD (SI)(AX*1), X0; \
	SOP  (DX)(AX*1), X0, X0; \
	VMOVSD X0, (DI)(AX*1); \
	ADDQ $8, AX; \
	DECQ CX; \
	JMP  L1; \
DONE: \
	VZEROUPPER; \
	RET

// func cpuHasAVX2() bool
//
// AVX2 is usable when the CPU reports it (CPUID.7.0:EBX bit 5), reports AVX
// and OSXSAVE (CPUID.1:ECX bits 28, 27), and the OS saves the YMM state on a
// context switch (XCR0 bits 1 and 2).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func axpy4AVX2(dst, b *float64, n int, a0, a1, a2, a3 float64)
//
// dst[j] += a0*b[j] + a1*b[n+j] + a2*b[2n+j] + a3*b[3n+j], j in [0,n): the
// three inner adds left to right, then the add onto dst.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD a0+24(FP), Y12
	VBROADCASTSD a1+32(FP), Y13
	VBROADCASTSD a2+40(FP), Y14
	VBROADCASTSD a3+48(FP), Y15
	LEAQ (CX*8), DX
	LEAQ (SI)(DX*1), R8
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	XORQ AX, AX
	CMPQ CX, $8
	JL   axpy4tail4

axpy4loop8:
	VMULPD (SI)(AX*1), Y12, Y0
	VMULPD (R8)(AX*1), Y13, Y1
	VMULPD 32(SI)(AX*1), Y12, Y4
	VMULPD 32(R8)(AX*1), Y13, Y5
	VADDPD Y1, Y0, Y0
	VADDPD Y5, Y4, Y4
	VMULPD (R9)(AX*1), Y14, Y2
	VMULPD 32(R9)(AX*1), Y14, Y6
	VADDPD Y2, Y0, Y0
	VADDPD Y6, Y4, Y4
	VMULPD (R10)(AX*1), Y15, Y3
	VMULPD 32(R10)(AX*1), Y15, Y7
	VADDPD Y3, Y0, Y0
	VADDPD Y7, Y4, Y4
	VMOVUPD (DI)(AX*1), Y8
	VMOVUPD 32(DI)(AX*1), Y9
	VADDPD Y0, Y8, Y8
	VADDPD Y4, Y9, Y9
	VMOVUPD Y8, (DI)(AX*1)
	VMOVUPD Y9, 32(DI)(AX*1)
	ADDQ $64, AX
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  axpy4loop8

axpy4tail4:
	CMPQ CX, $4
	JL   axpy4tail1
	VMULPD (SI)(AX*1), Y12, Y0
	VMULPD (R8)(AX*1), Y13, Y1
	VADDPD Y1, Y0, Y0
	VMULPD (R9)(AX*1), Y14, Y2
	VADDPD Y2, Y0, Y0
	VMULPD (R10)(AX*1), Y15, Y3
	VADDPD Y3, Y0, Y0
	VMOVUPD (DI)(AX*1), Y8
	VADDPD Y0, Y8, Y8
	VMOVUPD Y8, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $4, CX

axpy4tail1:
	TESTQ CX, CX
	JZ   axpy4done
	VMULSD (SI)(AX*1), X12, X0
	VMULSD (R8)(AX*1), X13, X1
	VADDSD X1, X0, X0
	VMULSD (R9)(AX*1), X14, X2
	VADDSD X2, X0, X0
	VMULSD (R10)(AX*1), X15, X3
	VADDSD X3, X0, X0
	VMOVSD (DI)(AX*1), X8
	VADDSD X0, X8, X8
	VMOVSD X8, (DI)(AX*1)
	ADDQ $8, AX
	DECQ CX
	JMP  axpy4tail1

axpy4done:
	VZEROUPPER
	RET

// func axpy1AVX2(dst, b *float64, n int, a float64)
//
// dst[j] += a*b[j], j in [0,n).
TEXT ·axpy1AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD a+24(FP), Y12
	XORQ AX, AX

axpy1loop4:
	CMPQ CX, $4
	JL   axpy1tail1
	VMULPD (SI)(AX*1), Y12, Y0
	VMOVUPD (DI)(AX*1), Y8
	VADDPD Y0, Y8, Y8
	VMOVUPD Y8, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $4, CX
	JMP  axpy1loop4

axpy1tail1:
	TESTQ CX, CX
	JZ   axpy1done
	VMULSD (SI)(AX*1), X12, X0
	VMOVSD (DI)(AX*1), X8
	VADDSD X0, X8, X8
	VMOVSD X8, (DI)(AX*1)
	ADDQ $8, AX
	DECQ CX
	JMP  axpy1tail1

axpy1done:
	VZEROUPPER
	RET

// func dotPanel8x4AVX2(out *[32]float64, panel, b0, b1, b2, b3 *float64, n int)
//
// Eight rows of a against four rows of b, as 32 sequential dot products run
// side by side. panel holds the eight a rows transposed, panel[k*8+r] =
// a[r][k], so one 4-lane vector is rows r..r+3 at one k; b0..b3 are four b
// rows read in place, one broadcast per k. Each of the eight accumulators
// starts at +0 and adds the products in ascending k, which is the scalar
// loop's `s += av*b[k]` for every lane. out[c*8+r] = sum_k a[r][k]*b_c[k].
TEXT ·dotPanel8x4AVX2(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ panel+8(FP), SI
	MOVQ b0+16(FP), R8
	MOVQ b1+24(FP), R9
	MOVQ b2+32(FP), R10
	MOVQ b3+40(FP), R11
	MOVQ n+48(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ AX, AX
	TESTQ CX, CX
	JZ   dotstore

dotloop:
	VMOVUPD (SI), Y8
	VMOVUPD 32(SI), Y9
	VBROADCASTSD (R8)(AX*8), Y10
	VBROADCASTSD (R9)(AX*8), Y11
	VMULPD Y8, Y10, Y12
	VMULPD Y9, Y10, Y13
	VMULPD Y8, Y11, Y14
	VMULPD Y9, Y11, Y15
	VADDPD Y12, Y0, Y0
	VADDPD Y13, Y1, Y1
	VADDPD Y14, Y2, Y2
	VADDPD Y15, Y3, Y3
	VBROADCASTSD (R10)(AX*8), Y10
	VBROADCASTSD (R11)(AX*8), Y11
	VMULPD Y8, Y10, Y12
	VMULPD Y9, Y10, Y13
	VMULPD Y8, Y11, Y14
	VMULPD Y9, Y11, Y15
	VADDPD Y12, Y4, Y4
	VADDPD Y13, Y5, Y5
	VADDPD Y14, Y6, Y6
	VADDPD Y15, Y7, Y7
	ADDQ $64, SI
	INCQ AX
	CMPQ AX, CX
	JL   dotloop

dotstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// func vecAddAVX2(dst, a, b *float64, n int)
TEXT ·vecAddAVX2(SB), NOSPLIT, $0-32
	VECBIN(VADDPD, VADDSD, add4, add1, adddone)

// func vecSubAVX2(dst, a, b *float64, n int)
TEXT ·vecSubAVX2(SB), NOSPLIT, $0-32
	VECBIN(VSUBPD, VSUBSD, sub4, sub1, subdone)

// func vecMulAVX2(dst, a, b *float64, n int)
TEXT ·vecMulAVX2(SB), NOSPLIT, $0-32
	VECBIN(VMULPD, VMULSD, mul4, mul1, muldone)

// func vecDivAVX2(dst, a, b *float64, n int)
TEXT ·vecDivAVX2(SB), NOSPLIT, $0-32
	VECBIN(VDIVPD, VDIVSD, div4, div1, divdone)

// func allFiniteAVX2(p *float64, n int) bool
//
// v-v is +0 for every finite v and NaN for NaN and ±Inf, so the OR of all
// the differences has a bit set exactly when some element is not finite.
TEXT ·allFiniteAVX2(SB), NOSPLIT, $0-17
	MOVQ p+0(FP), SI
	MOVQ n+8(FP), CX
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

finloop16:
	CMPQ CX, $16
	JL   finloop4
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	VSUBPD Y0, Y0, Y0
	VSUBPD Y1, Y1, Y1
	VSUBPD Y2, Y2, Y2
	VSUBPD Y3, Y3, Y3
	VORPD Y0, Y8, Y8
	VORPD Y1, Y9, Y9
	VORPD Y2, Y10, Y10
	VORPD Y3, Y11, Y11
	ADDQ $128, SI
	SUBQ $16, CX
	JMP  finloop16

finloop4:
	CMPQ CX, $4
	JL   fintail1
	VMOVUPD (SI), Y0
	VSUBPD Y0, Y0, Y0
	VORPD Y0, Y8, Y8
	ADDQ $32, SI
	SUBQ $4, CX
	JMP  finloop4

fintail1:
	TESTQ CX, CX
	JZ   findone
	VMOVSD (SI), X0
	VSUBSD X0, X0, X0
	VORPD Y0, Y9, Y9
	ADDQ $8, SI
	DECQ CX
	JMP  fintail1

findone:
	VORPD Y9, Y8, Y8
	VORPD Y11, Y10, Y10
	VORPD Y10, Y8, Y8
	VPTEST Y8, Y8
	SETEQ ret+16(FP)
	VZEROUPPER
	RET
