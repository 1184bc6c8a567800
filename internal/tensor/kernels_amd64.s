// AVX2 routines behind the matmul kernels, the same-shape elementwise loop,
// the activations and their gradient, allFinite, Adam's update, Log and the
// shuffle's Int31n draws (see kernels_amd64.go for the Go declarations and
// DESIGN.md "Kernel architecture" for the contract).
//
// The rule every routine here obeys: an output element sees exactly the
// operation sequence of the Go loop it replaces. Vector lanes (and unrolled
// vectors) only ever hold *independent* outputs; within one output the
// multiplies and adds are separate IEEE operations in source order — there
// is no FMA anywhere in this file, because a fused multiply-add skips the
// rounding of the product and would change low-order bits. Tails use the
// scalar VEX forms of the same instructions, so a lane and a tail element
// round identically. (logAVX2 replaces no Go loop: its lanes run math.Log's
// own amd64 sequence, and it leaves tails to math.Log itself. int31nAVX2
// computes its Go loop's integer remainders in float64 operations that are
// all exact, and leaves tails to the caller's loop.)

#include "textflag.h"

// VEC4 lays down four copies of one float64 at byte offset off of a constant
// table: a 32-byte operand a packed instruction can read in place.
#define VEC4(sym, off, val) \
	DATA sym<>+off(SB)/8, val; \
	DATA sym<>+off+8(SB)/8, val; \
	DATA sym<>+off+16(SB)/8, val; \
	DATA sym<>+off+24(SB)/8, val

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

// The row accumulator, rowAccAVX2, is one prologue and eight copies of the
// same loop, one per number of 4-lane vectors a row (or a chunk of a wider
// row) of 4 to 32 columns needs. Registers, set up by the prologue:
//
//	DI  dst row            SI  b row k            R8  b row k+3
//	DX  ldb*8, bytes from one b row to the next
//	R9, R10  the same two b rows at the last vector
//	BX  a[k]               R11 bytes between a[k] and a[k+1], R13 three times that
//	R12 byte offset of the last vector, (p-4)*8
//	CX  counter            AX  scratch (the seed row while LOADS runs)
//
// Vectors 0..n-2 sit at offsets 0, 32, ...; the last one sits at (p-4)*8
// whatever p is, so for a width that is not a multiple of four it overlaps
// its neighbour instead of running past the p columns. The shared columns
// are then accumulated twice, in two registers, from the same loads by the
// same instructions — lanes are independent outputs — and stored twice with
// the same bits.
//
// NV is one vector's share of one group of four k: the axpy4Generic sequence
// ((a0*b0 + a1*b1) + a2*b2) + a3*b3, then the add onto the accumulator that
// stands in for dst. B0/B3 are the registers holding b rows k and k+3 for
// this vector, Y12..Y15 the four a values. NT is the k tail, acc += a*b.
#define NV(B0, B3, OFF, ACC, T0, T1) \
	VMULPD OFF(B0), Y12, T0; \
	VMULPD OFF(B0)(DX*1), Y13, T1; \
	VADDPD T1, T0, T0; \
	VMULPD OFF(B0)(DX*2), Y14, T1; \
	VADDPD T1, T0, T0; \
	VMULPD OFF(B3), Y15, T1; \
	VADDPD T1, T0, T0; \
	VADDPD T0, ACC, ACC

#define NT(B0, OFF, ACC, T0) \
	VMULPD OFF(B0), Y12, T0; \
	VADDPD T0, ACC, ACC

#define NVLAST(ACC, T0, T1) NV(R9, R10, 0, ACC, T0, T1)
#define NTLAST(ACC, T0) NT(R9, 0, ACC, T0)

// FULLn is the first n vectors' share of a group, at their fixed offsets;
// GROUPn is a row of n vectors: n-1 of those and the last one.
#define FULL1 NV(SI, R8, 0, Y0, Y8, Y9)
#define FULL2 FULL1; NV(SI, R8, 32, Y1, Y10, Y11)
#define FULL3 FULL2; NV(SI, R8, 64, Y2, Y8, Y9)
#define FULL4 FULL3; NV(SI, R8, 96, Y3, Y10, Y11)
#define FULL5 FULL4; NV(SI, R8, 128, Y4, Y8, Y9)
#define FULL6 FULL5; NV(SI, R8, 160, Y5, Y10, Y11)
#define FULL7 FULL6; NV(SI, R8, 192, Y6, Y8, Y9)

#define GROUP1 NVLAST(Y0, Y8, Y9)
#define GROUP2 FULL1; NVLAST(Y1, Y10, Y11)
#define GROUP3 FULL2; NVLAST(Y2, Y8, Y9)
#define GROUP4 FULL3; NVLAST(Y3, Y10, Y11)
#define GROUP5 FULL4; NVLAST(Y4, Y8, Y9)
#define GROUP6 FULL5; NVLAST(Y5, Y10, Y11)
#define GROUP7 FULL6; NVLAST(Y6, Y8, Y9)
#define GROUP8 FULL7; NVLAST(Y7, Y10, Y11)

// The same for one leftover k.
#define TFULL1 NT(SI, 0, Y0, Y8)
#define TFULL2 TFULL1; NT(SI, 32, Y1, Y9)
#define TFULL3 TFULL2; NT(SI, 64, Y2, Y10)
#define TFULL4 TFULL3; NT(SI, 96, Y3, Y11)
#define TFULL5 TFULL4; NT(SI, 128, Y4, Y8)
#define TFULL6 TFULL5; NT(SI, 160, Y5, Y9)
#define TFULL7 TFULL6; NT(SI, 192, Y6, Y10)

#define TAIL1 NTLAST(Y0, Y8)
#define TAIL2 TFULL1; NTLAST(Y1, Y9)
#define TAIL3 TFULL2; NTLAST(Y2, Y10)
#define TAIL4 TFULL3; NTLAST(Y3, Y11)
#define TAIL5 TFULL4; NTLAST(Y4, Y8)
#define TAIL6 TFULL5; NTLAST(Y5, Y9)
#define TAIL7 TFULL6; NTLAST(Y6, Y10)
#define TAIL8 TFULL7; NTLAST(Y7, Y11)

// LOADSn reads the n accumulators from the row AX points at (dst itself, or
// the bias row of an Affine's first k tile); STORESn writes them to dst.
#define LFULL1 VMOVUPD (AX), Y0
#define LFULL2 LFULL1; VMOVUPD 32(AX), Y1
#define LFULL3 LFULL2; VMOVUPD 64(AX), Y2
#define LFULL4 LFULL3; VMOVUPD 96(AX), Y3
#define LFULL5 LFULL4; VMOVUPD 128(AX), Y4
#define LFULL6 LFULL5; VMOVUPD 160(AX), Y5
#define LFULL7 LFULL6; VMOVUPD 192(AX), Y6

#define LOADS1 VMOVUPD (AX)(R12*1), Y0
#define LOADS2 LFULL1; VMOVUPD (AX)(R12*1), Y1
#define LOADS3 LFULL2; VMOVUPD (AX)(R12*1), Y2
#define LOADS4 LFULL3; VMOVUPD (AX)(R12*1), Y3
#define LOADS5 LFULL4; VMOVUPD (AX)(R12*1), Y4
#define LOADS6 LFULL5; VMOVUPD (AX)(R12*1), Y5
#define LOADS7 LFULL6; VMOVUPD (AX)(R12*1), Y6
#define LOADS8 LFULL7; VMOVUPD (AX)(R12*1), Y7

#define SFULL1 VMOVUPD Y0, (DI)
#define SFULL2 SFULL1; VMOVUPD Y1, 32(DI)
#define SFULL3 SFULL2; VMOVUPD Y2, 64(DI)
#define SFULL4 SFULL3; VMOVUPD Y3, 96(DI)
#define SFULL5 SFULL4; VMOVUPD Y4, 128(DI)
#define SFULL6 SFULL5; VMOVUPD Y5, 160(DI)
#define SFULL7 SFULL6; VMOVUPD Y6, 192(DI)

#define STORES1 VMOVUPD Y0, (DI)(R12*1)
#define STORES2 SFULL1; VMOVUPD Y1, (DI)(R12*1)
#define STORES3 SFULL2; VMOVUPD Y2, (DI)(R12*1)
#define STORES4 SFULL3; VMOVUPD Y3, (DI)(R12*1)
#define STORES5 SFULL4; VMOVUPD Y4, (DI)(R12*1)
#define STORES6 SFULL5; VMOVUPD Y5, (DI)(R12*1)
#define STORES7 SFULL6; VMOVUPD Y6, (DI)(R12*1)
#define STORES8 SFULL7; VMOVUPD Y7, (DI)(R12*1)

// ROWACC is the loop for one vector count: the groups of four k, then up to
// three single k, each behind the exact-zero test of the Go loop — a group
// is skipped when b is finite and all four a are ±0 (their bit patterns
// ORed together and shifted clear of the sign are zero), a single k
// likewise. A skip leaves the accumulators as they are, which is what not
// touching dst was.
#define ROWACC(LOADS, GROUP, TAIL, STORES, LG, LGDO, LGNEXT, LT, LTLOOP, LTDO, LTNEXT, LDONE) \
	LOADS; \
	MOVQ kn+32(FP), CX; \
	SHRQ $2, CX; \
	JZ   LT; \
LG: \
	MOVQ (BX), AX; \
	ORQ  (BX)(R11*1), AX; \
	ORQ  (BX)(R11*2), AX; \
	ORQ  (BX)(R13*1), AX; \
	SHLQ $1, AX; \
	JNZ  LGDO; \
	CMPB bFinite+64(FP), $0; \
	JNE  LGNEXT; \
LGDO: \
	VBROADCASTSD (BX), Y12; \
	VBROADCASTSD (BX)(R11*1), Y13; \
	VBROADCASTSD (BX)(R11*2), Y14; \
	VBROADCASTSD (BX)(R13*1), Y15; \
	GROUP; \
LGNEXT: \
	LEAQ (BX)(R11*4), BX; \
	LEAQ (SI)(DX*4), SI; \
	LEAQ (R8)(DX*4), R8; \
	LEAQ (R9)(DX*4), R9; \
	LEAQ (R10)(DX*4), R10; \
	DECQ CX; \
	JNZ  LG; \
LT: \
	MOVQ kn+32(FP), CX; \
	ANDQ $3, CX; \
	JZ   LDONE; \
LTLOOP: \
	MOVQ (BX), AX; \
	SHLQ $1, AX; \
	JNZ  LTDO; \
	CMPB bFinite+64(FP), $0; \
	JNE  LTNEXT; \
LTDO: \
	VBROADCASTSD (BX), Y12; \
	TAIL; \
LTNEXT: \
	ADDQ R11, BX; \
	ADDQ DX, SI; \
	ADDQ DX, R9; \
	DECQ CX; \
	JNZ  LTLOOP; \
LDONE: \
	STORES; \
	VZEROUPPER; \
	RET

// The activation routines compare x with +0 (GT_OQ: false for NaN, as `v >
// 0` is in Go) and select with the resulting lane mask; the products are
// VMULPD. A tail element goes through the same packed instructions on an XMM
// register whose upper lane VMOVSD zeroed, so it rounds as a lane does.
#define CMPGT $0x1E

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

// func rowAccAVX2(dst, seed, a *float64, stride, kn int, b *float64, ldb, p int, bFinite bool)
//
// p columns of one dst row (4 <= p <= 32) against kn rows of b, ldb apart:
// the p columns are read once from seed into registers, every group of four
// k and every leftover k adds onto them there in ascending order, and they
// are written to dst once. a[k] is a[k*stride].
TEXT ·rowAccAVX2(SB), NOSPLIT, $0-65
	MOVQ dst+0(FP), DI
	MOVQ a+16(FP), BX
	MOVQ stride+24(FP), R11
	SHLQ $3, R11
	LEAQ (R11)(R11*2), R13
	MOVQ b+40(FP), SI
	MOVQ p+56(FP), CX
	LEAQ -4(CX), R12
	SHLQ $3, R12
	ADDQ $3, CX
	SHRQ $2, CX
	MOVQ ldb+48(FP), DX
	SHLQ $3, DX
	LEAQ (DX)(DX*2), R8
	ADDQ SI, R8
	LEAQ (SI)(R12*1), R9
	LEAQ (R8)(R12*1), R10
	MOVQ seed+8(FP), AX
	CMPQ CX, $4
	JGT  rowhi
	JEQ  row4
	CMPQ CX, $2
	JGT  row3
	JEQ  row2
	ROWACC(LOADS1, GROUP1, TAIL1, STORES1, n1g, n1gdo, n1gnext, n1t, n1tloop, n1tdo, n1tnext, n1done)

row2:
	ROWACC(LOADS2, GROUP2, TAIL2, STORES2, n2g, n2gdo, n2gnext, n2t, n2tloop, n2tdo, n2tnext, n2done)

row3:
	ROWACC(LOADS3, GROUP3, TAIL3, STORES3, n3g, n3gdo, n3gnext, n3t, n3tloop, n3tdo, n3tnext, n3done)

row4:
	ROWACC(LOADS4, GROUP4, TAIL4, STORES4, n4g, n4gdo, n4gnext, n4t, n4tloop, n4tdo, n4tnext, n4done)

rowhi:
	CMPQ CX, $6
	JGT  row78
	JEQ  row6
	ROWACC(LOADS5, GROUP5, TAIL5, STORES5, n5g, n5gdo, n5gnext, n5t, n5tloop, n5tdo, n5tnext, n5done)

row6:
	ROWACC(LOADS6, GROUP6, TAIL6, STORES6, n6g, n6gdo, n6gnext, n6t, n6tloop, n6tdo, n6tnext, n6done)

row78:
	CMPQ CX, $7
	JGT  row8
	ROWACC(LOADS7, GROUP7, TAIL7, STORES7, n7g, n7gdo, n7gnext, n7t, n7tloop, n7tdo, n7tnext, n7done)

row8:
	ROWACC(LOADS8, GROUP8, TAIL8, STORES8, n8g, n8gdo, n8gnext, n8t, n8tloop, n8tdo, n8tnext, n8done)

// func vecReLUAVX2(dst, x *float64, n int)
//
// dst[i] = x[i] where x[i] > 0, else +0: the compare mask ANDed onto x.
TEXT ·vecReLUAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	VXORPD Y15, Y15, Y15
	XORQ AX, AX

relu4:
	CMPQ CX, $4
	JL   relu1
	VMOVUPD (SI)(AX*1), Y0
	VCMPPD CMPGT, Y15, Y0, Y1
	VANDPD Y1, Y0, Y2
	VMOVUPD Y2, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $4, CX
	JMP  relu4

relu1:
	TESTQ CX, CX
	JZ   reludone
	VMOVSD (SI)(AX*1), X0
	VCMPPD CMPGT, X15, X0, X1
	VANDPD X1, X0, X2
	VMOVSD X2, (DI)(AX*1)
	ADDQ $8, AX
	DECQ CX
	JMP  relu1

reludone:
	VZEROUPPER
	RET

// func vecLeakyReLUAVX2(dst, x *float64, n int, slope float64)
//
// dst[i] = x[i] where x[i] > 0, else slope*x[i].
TEXT ·vecLeakyReLUAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD slope+24(FP), Y14
	VXORPD Y15, Y15, Y15
	XORQ AX, AX

leaky4:
	CMPQ CX, $4
	JL   leaky1
	VMOVUPD (SI)(AX*1), Y0
	VCMPPD CMPGT, Y15, Y0, Y1
	VMULPD Y0, Y14, Y2
	VBLENDVPD Y1, Y0, Y2, Y3
	VMOVUPD Y3, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $4, CX
	JMP  leaky4

leaky1:
	TESTQ CX, CX
	JZ   leakydone
	VMOVSD (SI)(AX*1), X0
	VCMPPD CMPGT, X15, X0, X1
	VMULPD X0, X14, X2
	VBLENDVPD X1, X0, X2, X3
	VMOVSD X3, (DI)(AX*1)
	ADDQ $8, AX
	DECQ CX
	JMP  leaky1

leakydone:
	VZEROUPPER
	RET

// func vecActGradAVX2(dst, grad, x *float64, n int, slope float64)
//
// dst[i] = grad[i]*m with m = 1 where x[i] > 0, else slope: the factor is
// selected, the product always formed.
TEXT ·vecActGradAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ grad+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), CX
	VBROADCASTSD slope+32(FP), Y14
	MOVQ $0x3FF0000000000000, AX
	MOVQ AX, X13
	VBROADCASTSD X13, Y13
	VXORPD Y15, Y15, Y15
	XORQ AX, AX

actgrad4:
	CMPQ CX, $4
	JL   actgrad1
	VMOVUPD (SI)(AX*1), Y0
	VCMPPD CMPGT, Y15, Y0, Y1
	VBLENDVPD Y1, Y13, Y14, Y2
	VMOVUPD (DX)(AX*1), Y3
	VMULPD Y2, Y3, Y3
	VMOVUPD Y3, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $4, CX
	JMP  actgrad4

actgrad1:
	TESTQ CX, CX
	JZ   actgraddone
	VMOVSD (SI)(AX*1), X0
	VCMPPD CMPGT, X15, X0, X1
	VBLENDVPD X1, X13, X14, X2
	VMOVSD (DX)(AX*1), X3
	VMULPD X2, X3, X3
	VMOVSD X3, (DI)(AX*1)
	ADDQ $8, AX
	DECQ CX
	JMP  actgrad1

actgraddone:
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

// func countZeroClassesAVX2(p *float64, n int) (posZero, zero, one int)
//
// Integer compares of the raw bits, as the Go loop does them: a lane equal to
// 0 is +0, a lane that is 0 once doubled (the sign shifted out) is +0 or -0,
// a lane equal to the bits of 1.0 is +1. A compare leaves all ones (-1) in a
// matching lane, so subtracting it counts the match. The tail compares in
// general registers: a scalar vector load would zero the upper lanes, and
// those zeros would be counted.
TEXT ·countZeroClassesAVX2(SB), NOSPLIT, $0-40
	MOVQ p+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ $0x3FF0000000000000, R11
	VMOVQ R11, X14
	VPBROADCASTQ X14, Y14
	VPXOR Y15, Y15, Y15
	VPXOR Y8, Y8, Y8
	VPXOR Y9, Y9, Y9
	VPXOR Y10, Y10, Y10
	XORQ R8, R8
	XORQ R9, R9
	XORQ R10, R10

zcloop8:
	CMPQ CX, $8
	JL   zcloop4
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y4
	VPCMPEQQ Y0, Y15, Y1
	VPADDQ Y0, Y0, Y2
	VPCMPEQQ Y0, Y14, Y3
	VPCMPEQQ Y2, Y15, Y2
	VPCMPEQQ Y4, Y15, Y5
	VPADDQ Y4, Y4, Y6
	VPCMPEQQ Y4, Y14, Y7
	VPCMPEQQ Y6, Y15, Y6
	VPSUBQ Y1, Y8, Y8
	VPSUBQ Y2, Y9, Y9
	VPSUBQ Y3, Y10, Y10
	VPSUBQ Y5, Y8, Y8
	VPSUBQ Y6, Y9, Y9
	VPSUBQ Y7, Y10, Y10
	ADDQ $64, SI
	SUBQ $8, CX
	JMP  zcloop8

zcloop4:
	CMPQ CX, $4
	JL   zctail1
	VMOVDQU (SI), Y0
	VPCMPEQQ Y0, Y15, Y1
	VPADDQ Y0, Y0, Y2
	VPCMPEQQ Y0, Y14, Y3
	VPCMPEQQ Y2, Y15, Y2
	VPSUBQ Y1, Y8, Y8
	VPSUBQ Y2, Y9, Y9
	VPSUBQ Y3, Y10, Y10
	ADDQ $32, SI
	SUBQ $4, CX
	JMP  zcloop4

zctail1:
	TESTQ CX, CX
	JZ   zcdone
	MOVQ (SI), AX
	XORQ DX, DX
	TESTQ AX, AX
	SETEQ DL
	ADDQ DX, R8
	MOVQ AX, BX
	SHLQ $1, BX
	SETEQ DL
	ADDQ DX, R9
	CMPQ AX, R11
	SETEQ DL
	ADDQ DX, R10
	ADDQ $8, SI
	DECQ CX
	JMP  zctail1

zcdone:
	VEXTRACTI128 $1, Y8, X0
	VPADDQ X0, X8, X8
	VPSHUFD $0x4E, X8, X0
	VPADDQ X0, X8, X8
	VMOVQ X8, AX
	ADDQ AX, R8
	VEXTRACTI128 $1, Y9, X0
	VPADDQ X0, X9, X9
	VPSHUFD $0x4E, X9, X0
	VPADDQ X0, X9, X9
	VMOVQ X9, AX
	ADDQ AX, R9
	VEXTRACTI128 $1, Y10, X0
	VPADDQ X0, X10, X10
	VPSHUFD $0x4E, X10, X0
	VPADDQ X0, X10, X10
	VMOVQ X10, AX
	ADDQ AX, R10
	MOVQ R8, posZero+16(FP)
	MOVQ R9, zero+24(FP)
	MOVQ R10, one+32(FP)
	VZEROUPPER
	RET

// func adamStepAVX2(w, grad, m, v *float64, n int, decay, beta1, oneMinusBeta1, beta2, oneMinusBeta2, bc1, bc2, lr, eps float64, div1, div2 bool)
//
// adamStepGeneric four elements at a time, each lane one element: gk = g +
// decay*w; m = beta1*m + oneMinusBeta1*gk; v = beta2*v +
// (oneMinusBeta2*gk)*gk; m and v stored; then m/bc1 unless div1 is false,
// v/bc2 unless div2 is false, and w -= (lr*m) / (sqrt(v) + eps). The two
// flags are the same for every element, so their branches always go the
// same way. Registers: DI w, SI g, DX m, R8 v, R9/R10 the flags, Y7..Y15 the
// constants (whose low lanes serve the scalar tail).
TEXT ·adamStepAVX2(SB), NOSPLIT, $0-114
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), DX
	MOVQ v+24(FP), R8
	MOVQ n+32(FP), CX
	VBROADCASTSD decay+40(FP), Y15
	VBROADCASTSD beta1+48(FP), Y14
	VBROADCASTSD oneMinusBeta1+56(FP), Y13
	VBROADCASTSD beta2+64(FP), Y12
	VBROADCASTSD oneMinusBeta2+72(FP), Y11
	VBROADCASTSD bc1+80(FP), Y10
	VBROADCASTSD bc2+88(FP), Y9
	VBROADCASTSD lr+96(FP), Y8
	VBROADCASTSD eps+104(FP), Y7
	MOVBLZX div1+112(FP), R9
	MOVBLZX div2+113(FP), R10
	XORQ AX, AX

adam4:
	CMPQ CX, $4
	JL   adam1
	VMOVUPD (DI)(AX*1), Y0
	VMULPD Y0, Y15, Y4
	VMOVUPD (SI)(AX*1), Y1
	VADDPD Y4, Y1, Y1
	VMULPD (DX)(AX*1), Y14, Y2
	VMULPD Y1, Y13, Y4
	VADDPD Y4, Y2, Y2
	VMULPD (R8)(AX*1), Y12, Y3
	VMULPD Y1, Y11, Y5
	VMULPD Y1, Y5, Y5
	VADDPD Y5, Y3, Y3
	VMOVUPD Y2, (DX)(AX*1)
	VMOVUPD Y3, (R8)(AX*1)
	TESTL R9, R9
	JZ   adam4v
	VDIVPD Y10, Y2, Y2

adam4v:
	TESTL R10, R10
	JZ   adam4w
	VDIVPD Y9, Y3, Y3

adam4w:
	VSQRTPD Y3, Y3
	VADDPD Y7, Y3, Y3
	VMULPD Y2, Y8, Y2
	VDIVPD Y3, Y2, Y2
	VSUBPD Y2, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $4, CX
	JMP  adam4

adam1:
	TESTQ CX, CX
	JZ   adamdone
	VMOVSD (DI)(AX*1), X0
	VMULSD X0, X15, X4
	VMOVSD (SI)(AX*1), X1
	VADDSD X4, X1, X1
	VMULSD (DX)(AX*1), X14, X2
	VMULSD X1, X13, X4
	VADDSD X4, X2, X2
	VMULSD (R8)(AX*1), X12, X3
	VMULSD X1, X11, X5
	VMULSD X1, X5, X5
	VADDSD X5, X3, X3
	VMOVSD X2, (DX)(AX*1)
	VMOVSD X3, (R8)(AX*1)
	TESTL R9, R9
	JZ   adam1v
	VDIVSD X10, X2, X2

adam1v:
	TESTL R10, R10
	JZ   adam1w
	VDIVSD X9, X3, X3

adam1w:
	VSQRTSD X3, X3, X3
	VADDSD X7, X3, X3
	VMULSD X2, X8, X2
	VDIVSD X3, X2, X2
	VSUBSD X2, X0, X0
	VMOVSD X0, (DI)(AX*1)
	ADDQ $8, AX
	DECQ CX
	JMP  adam1

adamdone:
	VZEROUPPER
	RET

// func packMaskedAVX2(presence, sign, values *byte, room int, data *float64, n int, perm *[16][8]uint32, adv *[16]uint8) (done, used int)
//
// The masked form (masked.go) of n elements, n a multiple of 8, eight
// elements — one byte of each plane — per turn. VPADDQ shifts the sign out, a
// compare with zero marks the lanes that are +0 or -0, and VMOVMSKPD turns
// that and the sign bits into two 4-bit masks per vector: sign AND zero is
// the sign plane's nibble, NOT zero the presence plane's. The presence nibble
// picks the VPERMD index vector in perm that moves the present lanes to the
// front in order; all 32 bytes are stored at the cursor and the cursor moves
// by adv[nibble], eight bytes per present lane — the store-everything,
// advance-by-presence rule of packWordF64, four elements at a time. A turn
// writes up to 64 bytes past the cursor, so the routine stops before a turn
// that room does not cover and reports how far it got.
TEXT ·packMaskedAVX2(SB), NOSPLIT, $0-80
	MOVQ presence+0(FP), R8
	MOVQ sign+8(FP), R9
	MOVQ values+16(FP), DI
	MOVQ room+24(FP), R14
	MOVQ data+32(FP), SI
	MOVQ n+40(FP), CX
	MOVQ perm+48(FP), R12
	MOVQ adv+56(FP), R13
	MOVQ DI, R15
	LEAQ -64(DI)(R14*1), R14
	SHRQ $3, CX
	VPXOR Y15, Y15, Y15

pkloop:
	TESTQ CX, CX
	JZ   pkdone
	CMPQ DI, R14
	JA   pkdone
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VPADDQ Y0, Y0, Y2
	VPADDQ Y1, Y1, Y3
	VPCMPEQQ Y2, Y15, Y2
	VPCMPEQQ Y3, Y15, Y3
	VMOVMSKPD Y2, AX
	VMOVMSKPD Y3, BX
	VMOVMSKPD Y0, R10
	VMOVMSKPD Y1, R11
	ANDL AX, R10
	ANDL BX, R11
	SHLL $4, R11
	ORL  R10, R11
	MOVB R11, (R9)
	XORL $15, AX
	XORL $15, BX
	MOVL BX, DX
	SHLL $4, DX
	ORL  AX, DX
	MOVB DL, (R8)
	MOVL AX, R10
	SHLL $5, R10
	VMOVDQU (R12)(R10*1), Y4
	VPERMD Y0, Y4, Y4
	VMOVDQU Y4, (DI)
	MOVBQZX (R13)(AX*1), R10
	ADDQ R10, DI
	MOVL BX, R11
	SHLL $5, R11
	VMOVDQU (R12)(R11*1), Y5
	VPERMD Y1, Y5, Y5
	VMOVDQU Y5, (DI)
	MOVBQZX (R13)(BX*1), R11
	ADDQ R11, DI
	ADDQ $64, SI
	INCQ R8
	INCQ R9
	DECQ CX
	JMP  pkloop

pkdone:
	MOVQ n+40(FP), AX
	SHLQ $3, CX
	SUBQ CX, AX
	MOVQ AX, done+64(FP)
	SUBQ R15, DI
	MOVQ DI, used+72(FP)
	VZEROUPPER
	RET

// logAVX2's constants, each a 32-byte vector: the literals of log_amd64.s
// (so the assembler rounds them to the same bits), the frexp masks, and the
// two values that turn an exponent field into k exactly.
VEC4(logconst, 0, $0x7FF0000000000000)   // +Inf
VEC4(logconst, 32, $0x000FFFFFFFFFFFFF)  // mantissa field
VEC4(logconst, 64, $0.5)
VEC4(logconst, 96, $0x4330000000000000)  // 2^52
VEC4(logconst, 128, $0x43300000000003FE) // 2^52 + 0x3FE
VEC4(logconst, 160, $7.07106781186547524401e-01) // HSqrt2
VEC4(logconst, 192, $1.0)
VEC4(logconst, 224, $2.0)
VEC4(logconst, 256, $6.666666666666735130e-01)   // L1
VEC4(logconst, 288, $3.999999999940941908e-01)   // L2
VEC4(logconst, 320, $2.857142874366239149e-01)   // L3
VEC4(logconst, 352, $2.222219843214978396e-01)   // L4
VEC4(logconst, 384, $1.818357216161805012e-01)   // L5
VEC4(logconst, 416, $1.531383769920937332e-01)   // L6
VEC4(logconst, 448, $1.479819860511658591e-01)   // L7
VEC4(logconst, 480, $6.93147180369123816490e-01) // Ln2Hi
VEC4(logconst, 512, $1.90821492927058770002e-10) // Ln2Lo
GLOBL logconst<>(SB), RODATA|NOPTR, $544

#define LOG_POSINF logconst<>+0(SB)
#define LOG_MANT logconst<>+32(SB)
#define LOG_HALF logconst<>+64(SB)
#define LOG_TWO52 logconst<>+96(SB)
#define LOG_TWO52BIAS logconst<>+128(SB)
#define LOG_HSQRT2 logconst<>+160(SB)
#define LOG_ONE logconst<>+192(SB)
#define LOG_TWO logconst<>+224(SB)
#define LOG_L1 logconst<>+256(SB)
#define LOG_L2 logconst<>+288(SB)
#define LOG_L3 logconst<>+320(SB)
#define LOG_L4 logconst<>+352(SB)
#define LOG_L5 logconst<>+384(SB)
#define LOG_L6 logconst<>+416(SB)
#define LOG_L7 logconst<>+448(SB)
#define LOG_LN2HI logconst<>+480(SB)
#define LOG_LN2LO logconst<>+512(SB)

// func logAVX2(dst, x *float64, n int) (done int)
//
// math.Log's amd64 routine (archLog, $GOROOT/src/math/log_amd64.s) on four
// lanes, instruction for instruction: frexp by bit masks (so a positive
// denormal goes the way it goes there), k -= 1 and f1 *= 2 under the
// CMPSD-NLT mask !(HSqrt2 < f1), f = f1-1, s = f/(2+f), the two polynomials
// in s⁴, and k·Ln2Hi − ((hfsq − (s·(hfsq+R) + k·Ln2Lo)) − f). Groups of four
// are taken while n allows; the routine stops before a group with a lane
// archLog sends down a branch of its own — ±0, a negative, +Inf or NaN,
// i.e. bits that are not in (0, +Inf) as integers — and returns how many
// elements it wrote. k is exact either way: archLog converts the int32
// e−0x3FE, this the difference of 2^52+e and 2^52+0x3FE. Registers: Y13
// HSqrt2 (NLT's first operand must be a register), Y14 zero, Y15 +Inf.
TEXT ·logAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	VPXOR Y14, Y14, Y14
	VMOVUPD LOG_POSINF, Y15
	VMOVUPD LOG_HSQRT2, Y13

logloop:
	CMPQ CX, $4
	JL   logdone
	VMOVUPD (SI)(AX*8), Y0
	VPCMPGTQ Y14, Y0, Y8
	VPCMPGTQ Y0, Y15, Y9
	VPAND Y9, Y8, Y8
	VMOVMSKPD Y8, BX
	CMPQ BX, $15
	JNE  logdone
	VANDPD LOG_MANT, Y0, Y1
	VORPD LOG_HALF, Y1, Y1
	VPSRLQ $52, Y0, Y2
	VPOR LOG_TWO52, Y2, Y2
	VSUBPD LOG_TWO52BIAS, Y2, Y2
	VCMPPD $5, Y1, Y13, Y8
	VANDPD LOG_ONE, Y8, Y8
	VSUBPD Y8, Y2, Y2
	VADDPD LOG_ONE, Y8, Y8
	VMULPD Y8, Y1, Y1
	VSUBPD LOG_ONE, Y1, Y1
	VADDPD LOG_TWO, Y1, Y8
	VDIVPD Y8, Y1, Y3
	VMULPD Y3, Y3, Y4
	VMULPD Y4, Y4, Y5
	VMULPD LOG_L7, Y5, Y6
	VADDPD LOG_L5, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD LOG_L3, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD LOG_L1, Y6, Y6
	VMULPD Y6, Y4, Y4
	VMULPD LOG_L6, Y5, Y6
	VADDPD LOG_L4, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD LOG_L2, Y6, Y6
	VMULPD Y6, Y5, Y5
	VADDPD Y5, Y4, Y4
	VMULPD LOG_HALF, Y1, Y7
	VMULPD Y1, Y7, Y7
	VADDPD Y7, Y4, Y4
	VMULPD Y4, Y3, Y3
	VMULPD LOG_LN2LO, Y2, Y6
	VADDPD Y6, Y3, Y3
	VSUBPD Y3, Y7, Y7
	VSUBPD Y1, Y7, Y7
	VMULPD LOG_LN2HI, Y2, Y2
	VSUBPD Y7, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ $4, AX
	SUBQ $4, CX
	JMP  logloop

logdone:
	MOVQ AX, done+24(FP)
	VZEROUPPER
	RET

// The draws routine's constants: the four lanes' offsets from lo, the step
// between groups, 2³¹, the VPERMD index that gathers the high halves of four
// qwords into the low four dwords, and the mask that clears bit 63's copy.
DATA drawconst<>+0(SB)/8, $1.0
DATA drawconst<>+8(SB)/8, $2.0
DATA drawconst<>+16(SB)/8, $3.0
DATA drawconst<>+24(SB)/8, $4.0
VEC4(drawconst, 32, $4.0)
VEC4(drawconst, 64, $0x41E0000000000000) // 2^31
DATA drawconst<>+96(SB)/8, $0x0000000300000001
DATA drawconst<>+104(SB)/8, $0x0000000700000005
DATA drawconst<>+112(SB)/8, $0x0000000300000001
DATA drawconst<>+120(SB)/8, $0x0000000700000005
DATA drawconst<>+128(SB)/8, $0x7FFFFFFF7FFFFFFF
DATA drawconst<>+136(SB)/8, $0x7FFFFFFF7FFFFFFF
GLOBL drawconst<>(SB), RODATA|NOPTR, $144

#define DRAW_OFFSETS drawconst<>+0(SB)
#define DRAW_STEP drawconst<>+32(SB)
#define DRAW_TWO31 drawconst<>+64(SB)
#define DRAW_HIGH drawconst<>+96(SB)
#define DRAW_MASK drawconst<>+128(SB)

// func int31nAVX2(js *uint32, xs *uint64, n, lo int) (done int)
//
// int31nDrawsGeneric's groups of four, lane k of a group bound to
// b = lo+k+1, in float64. Every step is exact:
//   - v, bits 62..32 of xs[k], is below 2³¹ and b is at most 2³¹−1, so
//     both convert to doubles exactly;
//   - truncating the correctly rounded v/b gives ⌊v/b⌋ itself: the quotient
//     is never below ⌊v/b⌋, which is a double, and it lies at least 1/b below
//     ⌊v/b⌋+1, while half an ulp of ⌊v/b⌋+1 is at most (v+b)/b·2⁻⁵³ < 1/b
//     (v+b < 2³²), so it never rounds up to ⌊v/b⌋+1;
//   - q·b ≤ v, and v − q·b and v − r are integers below 2³¹, so the product
//     and both differences are exact and r = v − q·b is v%b;
//   - the acceptance v − r ≤ 2³¹ − b (CMPPD LE) compares exact integers.
// So the remainder needs no fix-up, and as every instruction is one
// correctly rounded IEEE operation (no FMA), the bits do not depend on the
// CPU. A group with a lane Int31n would reject ends the routine before any
// of it is stored. Registers: Y15 the four bounds, Y14 the step, Y13 2³¹,
// Y12 the VPERMD index, X11 the mask.
TEXT ·int31nAVX2(SB), NOSPLIT, $0-40
	MOVQ js+0(FP), DI
	MOVQ xs+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ lo+24(FP), AX
	VCVTSI2SDQ AX, X15, X15
	VBROADCASTSD X15, Y15
	VADDPD DRAW_OFFSETS, Y15, Y15
	VMOVUPD DRAW_STEP, Y14
	VMOVUPD DRAW_TWO31, Y13
	VMOVDQU DRAW_HIGH, Y12
	VMOVDQU DRAW_MASK, X11
	XORQ AX, AX

drawloop:
	CMPQ CX, $4
	JL   drawdone
	VMOVDQU (SI)(AX*8), Y0
	VPERMD Y0, Y12, Y0
	VPAND X11, X0, X0
	VCVTDQ2PD X0, Y0
	VDIVPD Y15, Y0, Y1
	VROUNDPD $3, Y1, Y1
	VMULPD Y15, Y1, Y1
	VSUBPD Y1, Y0, Y2
	VSUBPD Y2, Y0, Y0
	VSUBPD Y15, Y13, Y1
	VCMPPD $2, Y1, Y0, Y0
	VMOVMSKPD Y0, BX
	CMPQ BX, $15
	JNE  drawdone
	VCVTTPD2DQY Y2, X2
	VMOVDQU X2, (DI)(AX*4)
	VADDPD Y14, Y15, Y15
	ADDQ $4, AX
	SUBQ $4, CX
	JMP  drawloop

drawdone:
	MOVQ AX, done+32(FP)
	VZEROUPPER
	RET
