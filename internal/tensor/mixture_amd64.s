// AVX2 routines behind the Gaussian-mixture E- and M-step (mixture.go has
// the Go side, internal/gmm's posterior and mStep the specification).
//
// kernels_amd64.s's rule holds here too: lanes hold independent outputs —
// four values' logits for one component in the posterior, four components'
// sums in the M-step — and every output sees the Go loop's operations, in its
// order, each rounded on its own. There is no FMA, no reciprocal and no
// reassociated sum in this file.

#include "textflag.h"

DATA gmmconst<>+0(SB)/8, $-0.5
DATA gmmconst<>+8(SB)/8, $0xFFF0000000000000 // -Inf
GLOBL gmmconst<>(SB), RODATA|NOPTR, $16

#define GMM_NEGHALF gmmconst<>+0(SB)
#define GMM_NEGINF gmmconst<>+8(SB)

// func gmmLogitsAVX2(s, maxLog, x *float64, n, k int, means, stds, logW, logStd *float64, halfLog2Pi float64)
//
// gmm.posterior's first two loops for n values (n a multiple of four), four
// values a vector: per component c, d = (x−μ_c)/σ_c and the logit
// l = log w_c + (((−0.5·d)·d − log σ_c) − halfLog2Pi), stored at
// s[c·n + i]; the running maximum, from −Inf, takes l only where l > max
// (VMAXPD with l as its first source returns the second, the maximum so far,
// on a tie or a NaN, which is what the strict compare keeps); then every
// stored logit becomes l − max, and max goes to maxLog[i]. Registers: Y0 x,
// Y1 max, Y13 −Inf, Y14 −0.5, Y15 halfLog2Pi, R13 the component stride.
TEXT ·gmmLogitsAVX2(SB), NOSPLIT, $0-80
	MOVQ s+0(FP), DI
	MOVQ maxLog+8(FP), R8
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), CX
	MOVQ k+32(FP), DX
	MOVQ means+40(FP), R9
	MOVQ stds+48(FP), R10
	MOVQ logW+56(FP), R11
	MOVQ logStd+64(FP), R12
	VBROADCASTSD halfLog2Pi+72(FP), Y15
	VBROADCASTSD GMM_NEGHALF, Y14
	VBROADCASTSD GMM_NEGINF, Y13
	LEAQ (CX*8), R13
	XORQ AX, AX

logitgroup:
	CMPQ AX, CX
	JGE  logitdone
	VMOVUPD (SI)(AX*8), Y0
	VMOVAPD Y13, Y1
	LEAQ (DI)(AX*8), BX
	XORQ R14, R14

logitcomp:
	VBROADCASTSD (R9)(R14*8), Y2
	VSUBPD Y2, Y0, Y2
	VBROADCASTSD (R10)(R14*8), Y3
	VDIVPD Y3, Y2, Y2
	VMULPD Y2, Y14, Y3
	VMULPD Y2, Y3, Y3
	VBROADCASTSD (R12)(R14*8), Y4
	VSUBPD Y4, Y3, Y3
	VSUBPD Y15, Y3, Y3
	VBROADCASTSD (R11)(R14*8), Y4
	VADDPD Y3, Y4, Y3
	VMOVUPD Y3, (BX)
	VMAXPD Y1, Y3, Y1
	ADDQ R13, BX
	INCQ R14
	CMPQ R14, DX
	JL   logitcomp

	LEAQ (DI)(AX*8), BX
	XORQ R14, R14

logitshift:
	VMOVUPD (BX), Y3
	VSUBPD Y1, Y3, Y3
	VMOVUPD Y3, (BX)
	ADDQ R13, BX
	INCQ R14
	CMPQ R14, DX
	JL   logitshift

	VMOVUPD Y1, (R8)(AX*8)
	ADDQ $4, AX
	JMP  logitgroup

logitdone:
	VZEROUPPER
	RET

// func gmmNormalizeAVX2(resp, sum, s *float64, n, k int)
//
// gmm.posterior's last two loops over what gmmLogitsAVX2 left in s, once
// Exp has replaced each shifted logit by its exponential: per group of four
// values, sum = ((+0 + p_0) + p_1) + … over ascending components, stored at
// sum[i], then p_c / sum, whose four lanes are four values' rows, stored one
// lane at a time to resp[(i+lane)·k + c] — the row-major layout the M-step
// reads. Registers: Y1 the sum, R13 the component stride of s, R15 k·8 (one
// row of resp), DX 3·k·8.
TEXT ·gmmNormalizeAVX2(SB), NOSPLIT, $0-40
	MOVQ resp+0(FP), DI
	MOVQ sum+8(FP), R8
	MOVQ s+16(FP), SI
	MOVQ n+24(FP), CX
	MOVQ k+32(FP), R12
	LEAQ (CX*8), R13
	LEAQ (R12*8), R15
	LEAQ (R15)(R15*2), DX
	XORQ AX, AX

normgroup:
	CMPQ AX, CX
	JGE  normdone
	VXORPD Y1, Y1, Y1
	LEAQ (SI)(AX*8), BX
	XORQ R14, R14

normsum:
	VADDPD (BX), Y1, Y1
	ADDQ R13, BX
	INCQ R14
	CMPQ R14, R12
	JL   normsum

	VMOVUPD Y1, (R8)(AX*8)
	LEAQ (SI)(AX*8), BX
	MOVQ DI, R9
	XORQ R14, R14

normdiv:
	VMOVUPD (BX), Y3
	VDIVPD Y1, Y3, Y3
	VEXTRACTF128 $1, Y3, X4
	VMOVSD X3, (R9)
	VMOVHPD X3, (R9)(R15*1)
	VMOVSD X4, (R9)(R15*2)
	VMOVHPD X4, (R9)(DX*1)
	ADDQ R13, BX
	ADDQ $8, R9
	INCQ R14
	CMPQ R14, R12
	JL   normdiv

	LEAQ (DI)(R15*4), DI
	ADDQ $4, AX
	JMP  normgroup

normdone:
	VZEROUPPER
	RET

// func gmmSumsAVX2(nk, mu, resp, x *float64, n, k int, mask *[12]uint64)
//
// gmm.mStep's first pass: nk_c = Σ r and mu_c = Σ r·x over the rows in
// ascending order, from +0, each product rounded before it is added. Lanes
// are components — the row's twelve-wide window of resp in three vectors,
// loaded through mask (all ones on components below k), so a missing
// component is neither read nor stored. Registers: Y0–Y2 nk, Y3–Y5 mu, Y6 x,
// Y13–Y15 the masks, R15 k·8.
TEXT ·gmmSumsAVX2(SB), NOSPLIT, $0-56
	MOVQ nk+0(FP), DI
	MOVQ mu+8(FP), R8
	MOVQ resp+16(FP), BX
	MOVQ x+24(FP), SI
	MOVQ n+32(FP), CX
	MOVQ k+40(FP), R15
	MOVQ mask+48(FP), DX
	SHLQ $3, R15
	VMOVDQU 0(DX), Y13
	VMOVDQU 32(DX), Y14
	VMOVDQU 64(DX), Y15
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	XORQ AX, AX

sumsrow:
	CMPQ AX, CX
	JGE  sumsdone
	VBROADCASTSD (SI)(AX*8), Y6
	VMASKMOVPD 0(BX), Y13, Y7
	VADDPD Y7, Y0, Y0
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y3, Y3
	VMASKMOVPD 32(BX), Y14, Y8
	VADDPD Y8, Y1, Y1
	VMULPD Y6, Y8, Y8
	VADDPD Y8, Y4, Y4
	VMASKMOVPD 64(BX), Y15, Y9
	VADDPD Y9, Y2, Y2
	VMULPD Y6, Y9, Y9
	VADDPD Y9, Y5, Y5
	ADDQ R15, BX
	INCQ AX
	JMP  sumsrow

sumsdone:
	VMASKMOVPD Y0, Y13, 0(DI)
	VMASKMOVPD Y1, Y14, 32(DI)
	VMASKMOVPD Y2, Y15, 64(DI)
	VMASKMOVPD Y3, Y13, 0(R8)
	VMASKMOVPD Y4, Y14, 32(R8)
	VMASKMOVPD Y5, Y15, 64(R8)
	VZEROUPPER
	RET

// func gmmSpreadAVX2(va, mu, resp, x *float64, n, k int, mask *[12]uint64)
//
// gmm.mStep's second pass: va_c = Σ (r·d)·d with d = x − mu_c, over the rows
// in ascending order from +0, with gmmSumsAVX2's lanes and masks. Registers:
// Y0–Y2 va, Y3–Y5 mu, Y6 x, Y13–Y15 the masks, R15 k·8.
TEXT ·gmmSpreadAVX2(SB), NOSPLIT, $0-56
	MOVQ va+0(FP), DI
	MOVQ mu+8(FP), R8
	MOVQ resp+16(FP), BX
	MOVQ x+24(FP), SI
	MOVQ n+32(FP), CX
	MOVQ k+40(FP), R15
	MOVQ mask+48(FP), DX
	SHLQ $3, R15
	VMOVDQU 0(DX), Y13
	VMOVDQU 32(DX), Y14
	VMOVDQU 64(DX), Y15
	VMASKMOVPD 0(R8), Y13, Y3
	VMASKMOVPD 32(R8), Y14, Y4
	VMASKMOVPD 64(R8), Y15, Y5
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	XORQ AX, AX

spreadrow:
	CMPQ AX, CX
	JGE  spreaddone
	VBROADCASTSD (SI)(AX*8), Y6
	VMASKMOVPD 0(BX), Y13, Y7
	VSUBPD Y3, Y6, Y10
	VMULPD Y10, Y7, Y7
	VMULPD Y10, Y7, Y7
	VADDPD Y7, Y0, Y0
	VMASKMOVPD 32(BX), Y14, Y8
	VSUBPD Y4, Y6, Y11
	VMULPD Y11, Y8, Y8
	VMULPD Y11, Y8, Y8
	VADDPD Y8, Y1, Y1
	VMASKMOVPD 64(BX), Y15, Y9
	VSUBPD Y5, Y6, Y12
	VMULPD Y12, Y9, Y9
	VMULPD Y12, Y9, Y9
	VADDPD Y9, Y2, Y2
	ADDQ R15, BX
	INCQ AX
	JMP  spreadrow

spreaddone:
	VMASKMOVPD Y0, Y13, 0(DI)
	VMASKMOVPD Y1, Y14, 32(DI)
	VMASKMOVPD Y2, Y15, 64(DI)
	VZEROUPPER
	RET
