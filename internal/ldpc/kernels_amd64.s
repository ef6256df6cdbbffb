#include "textflag.h"

// AVX2 kernels of the min-sum decoder (kernels_amd64.go), eight checks
// or beliefs per step. Each processes n elements, n a positive multiple
// of 8; the Go wrappers finish the rest with the portable kernels.
// Only VEX encodings are used between the first vector instruction and
// the closing VZEROUPPER: a legacy-SSE instruction there, or a
// VPBLENDVB select, costs more than the whole loop body on some cores.
// Selects are VPAND/VPANDN/VPOR. Magnitudes compare as signed words,
// which is exact because both sides are at most 0x7fffffff.

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func resetVec(min1, min2, minBlk, parity *uint32, n int)
TEXT ·resetVec(SB), NOSPLIT, $0-40
	MOVQ min1+0(FP), AX
	MOVQ min2+8(FP), BX
	MOVQ minBlk+16(FP), CX
	MOVQ parity+24(FP), DX
	MOVQ n+32(FP), R8
	SHLQ $2, R8
	MOVL $0x7f7fffff, R10
	VMOVD R10, X0
	VPBROADCASTD X0, Y0       // emptyMag
	VPCMPEQD Y1, Y1, Y1       // noBlock
	VPXOR Y2, Y2, Y2
	XORQ R9, R9

reset:
	VMOVDQU Y0, (AX)(R9*1)
	VMOVDQU Y0, (BX)(R9*1)
	VMOVDQU Y1, (CX)(R9*1)
	VMOVDQU Y2, (DX)(R9*1)
	ADDQ $32, R9
	CMPQ R9, R8
	JLT  reset
	VZEROUPPER
	RET

// func foldVec(min1, min2, minBlk, parity *uint32, ctv, total *float32, n int, blk int32)
TEXT ·foldVec(SB), NOSPLIT, $0-60
	MOVQ min1+0(FP), AX
	MOVQ min2+8(FP), BX
	MOVQ minBlk+16(FP), CX
	MOVQ parity+24(FP), DX
	MOVQ ctv+32(FP), SI
	MOVQ total+40(FP), DI
	MOVQ n+48(FP), R8
	SHLQ $2, R8
	MOVL blk+56(FP), R10
	VMOVD R10, X13
	VPBROADCASTD X13, Y13     // blk in every lane
	VPCMPEQD Y12, Y12, Y12
	VPSRLD $1, Y12, Y12       // 0x7fffffff: clears the sign
	XORQ R9, R9

fold:
	VMOVUPS (DI)(R9*1), Y0
	VSUBPS (SI)(R9*1), Y0, Y0 // vtc = total - ctv
	VMOVUPS Y0, (SI)(R9*1)
	VPAND Y12, Y0, Y1         // m
	VMOVDQU (AX)(R9*1), Y2    // min1
	VPCMPGTD Y1, Y2, Y3       // m < min1
	VPAND Y13, Y3, Y4
	VPANDN (CX)(R9*1), Y3, Y5
	VPOR Y4, Y5, Y4
	VMOVDQU Y4, (CX)(R9*1)    // minBlk = m < min1 ? blk : minBlk
	VPMAXUD Y1, Y2, Y5
	VPMINUD (BX)(R9*1), Y5, Y5
	VMOVDQU Y5, (BX)(R9*1)    // min2 = min(min2, max(m, min1))
	VPMINUD Y1, Y2, Y2
	VMOVDQU Y2, (AX)(R9*1)    // min1 = min(min1, m)
	VPXOR (DX)(R9*1), Y0, Y0
	VMOVDQU Y0, (DX)(R9*1)    // parity ^= bits
	ADDQ $32, R9
	CMPQ R9, R8
	JLT  fold
	VZEROUPPER
	RET

// func scaleVec(min1, min2 *uint32, n int, alpha float32)
TEXT ·scaleVec(SB), NOSPLIT, $0-28
	MOVQ min1+0(FP), AX
	MOVQ min2+8(FP), BX
	MOVQ n+16(FP), R8
	SHLQ $2, R8
	MOVL alpha+24(FP), R10
	VMOVD R10, X13
	VPBROADCASTD X13, Y13
	XORQ R9, R9

scale:
	VMULPS (AX)(R9*1), Y13, Y0
	VMOVUPS Y0, (AX)(R9*1)
	VMULPS (BX)(R9*1), Y13, Y1
	VMOVUPS Y1, (BX)(R9*1)
	ADDQ $32, R9
	CMPQ R9, R8
	JLT  scale
	VZEROUPPER
	RET

// func writeBackVec(min1, min2, minBlk, parity *uint32, ctv, next *float32, n int, blk int32)
TEXT ·writeBackVec(SB), NOSPLIT, $0-60
	MOVQ min1+0(FP), AX
	MOVQ min2+8(FP), BX
	MOVQ minBlk+16(FP), CX
	MOVQ parity+24(FP), DX
	MOVQ ctv+32(FP), SI
	MOVQ next+40(FP), DI
	MOVQ n+48(FP), R8
	SHLQ $2, R8
	MOVL blk+56(FP), R10
	VMOVD R10, X13
	VPBROADCASTD X13, Y13     // blk in every lane
	VPCMPEQD Y12, Y12, Y12
	VPSLLD $31, Y12, Y12      // the sign bit
	XORQ R9, R9

writeback:
	VPCMPEQD (CX)(R9*1), Y13, Y0 // minBlk == blk
	VPAND (BX)(R9*1), Y0, Y1
	VPANDN (AX)(R9*1), Y0, Y2
	VPOR Y1, Y2, Y1           // mag
	VMOVDQU (SI)(R9*1), Y2
	VPXOR (DX)(R9*1), Y2, Y2
	VPAND Y12, Y2, Y2
	VPOR Y2, Y1, Y1           // msg = mag | (vtc ^ parity) & sign
	VMOVDQU Y1, (SI)(R9*1)
	VMOVUPS (DI)(R9*1), Y3
	VADDPS Y1, Y3, Y3         // next + msg
	VMOVUPS Y3, (DI)(R9*1)
	ADDQ $32, R9
	CMPQ R9, R8
	JLT  writeback
	VZEROUPPER
	RET

// func packVec(words *uint64, total *float32, n int)
//
// n counts words: each takes 64 beliefs. A belief x is negative iff
// its bits exceed -0's, that is iff x^signBit > 0 as a signed word.
TEXT ·packVec(SB), NOSPLIT, $0-24
	MOVQ words+0(FP), AX
	MOVQ total+8(FP), DI
	MOVQ n+16(FP), CX
	VPCMPEQD Y12, Y12, Y12
	VPSLLD $31, Y12, Y12      // the sign bit
	VPXOR Y13, Y13, Y13

pack:
	VPXOR (DI), Y12, Y0
	VPCMPGTD Y13, Y0, Y0
	VMOVMSKPS Y0, R8
	VPXOR 32(DI), Y12, Y1
	VPCMPGTD Y13, Y1, Y1
	VMOVMSKPS Y1, R9
	SHLQ $8, R9
	ORQ  R9, R8
	VPXOR 64(DI), Y12, Y2
	VPCMPGTD Y13, Y2, Y2
	VMOVMSKPS Y2, R9
	SHLQ $16, R9
	ORQ  R9, R8
	VPXOR 96(DI), Y12, Y3
	VPCMPGTD Y13, Y3, Y3
	VMOVMSKPS Y3, R9
	SHLQ $24, R9
	ORQ  R9, R8
	VPXOR 128(DI), Y12, Y4
	VPCMPGTD Y13, Y4, Y4
	VMOVMSKPS Y4, R9
	SHLQ $32, R9
	ORQ  R9, R8
	VPXOR 160(DI), Y12, Y5
	VPCMPGTD Y13, Y5, Y5
	VMOVMSKPS Y5, R9
	SHLQ $40, R9
	ORQ  R9, R8
	VPXOR 192(DI), Y12, Y6
	VPCMPGTD Y13, Y6, Y6
	VMOVMSKPS Y6, R9
	SHLQ $48, R9
	ORQ  R9, R8
	VPXOR 224(DI), Y12, Y7
	VPCMPGTD Y13, Y7, Y7
	VMOVMSKPS Y7, R9
	SHLQ $56, R9
	ORQ  R9, R8
	MOVQ R8, (AX)
	ADDQ $256, DI
	ADDQ $8, AX
	DECQ CX
	JNZ  pack
	VZEROUPPER
	RET
