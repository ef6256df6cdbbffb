#include "textflag.h"

// AVX2 kernels of the min-sum decoder (kernels_amd64.go), eight checks
// or beliefs per step, on whole vectors; the Go wrappers check the
// lengths and finish the rest with the portable kernels.
// Only VEX encodings are used between the first vector instruction and
// the closing VZEROUPPER: a legacy-SSE instruction there, or a
// VPBLENDVB select, costs more than the whole loop body on some cores.
// Selects are VPAND/VPANDN/VPOR. Magnitudes are sign-cleared float bits
// and compare as unsigned words.

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

// wrapTab is the 8-entry table of index and mask vectors the row
// kernel rotates a wrapping chunk with, stored overlapped: entry e, the
// index vector (i−e)&7 and the mask of lanes i < e, is the 8 lanes from
// lane 8−e of the 16-lane rows 0…7,0…7 and eight ones, eight zeros.
DATA wrapTab<>+0(SB)/8, $0x0000000100000000
DATA wrapTab<>+8(SB)/8, $0x0000000300000002
DATA wrapTab<>+16(SB)/8, $0x0000000500000004
DATA wrapTab<>+24(SB)/8, $0x0000000700000006
DATA wrapTab<>+32(SB)/8, $0x0000000100000000
DATA wrapTab<>+40(SB)/8, $0x0000000300000002
DATA wrapTab<>+48(SB)/8, $0x0000000500000004
DATA wrapTab<>+56(SB)/8, $0x0000000700000006
DATA wrapTab<>+64(SB)/8, $-1
DATA wrapTab<>+72(SB)/8, $-1
DATA wrapTab<>+80(SB)/8, $-1
DATA wrapTab<>+88(SB)/8, $-1
DATA wrapTab<>+96(SB)/8, $0
DATA wrapTab<>+104(SB)/8, $0
DATA wrapTab<>+112(SB)/8, $0
DATA wrapTab<>+120(SB)/8, $0
GLOBL wrapTab<>(SB), RODATA|NOPTR, $128

// expandShifts moves bit i of a word to the sign bit of lane i: 31−i.
DATA expandShifts<>+0(SB)/8, $0x0000001e0000001f
DATA expandShifts<>+8(SB)/8, $0x0000001c0000001d
DATA expandShifts<>+16(SB)/8, $0x0000001a0000001b
DATA expandShifts<>+24(SB)/8, $0x0000001800000019
GLOBL expandShifts<>(SB), RODATA|NOPTR, $32

// func expandVec(llrs, total *float32, words *uint64, n int)
//
// n counts words. Each 32-bit half of a word is broadcast to every
// lane, and lane i of its g-th group of 8 shifts bit 8g+i into the sign
// bit, which is ORed into 1.0.
TEXT ·expandVec(SB), NOSPLIT, $0-32
	MOVQ llrs+0(FP), DI
	MOVQ total+8(FP), SI
	MOVQ words+16(FP), AX
	MOVQ n+24(FP), CX
	VMOVDQU expandShifts<>(SB), Y8 // 31−i: bits 0…7
	MOVL $8, R8
	VMOVD R8, X0
	VPBROADCASTD X0, Y0
	VPSUBD Y0, Y8, Y9         // bits 8…15
	VPSUBD Y0, Y9, Y10        // bits 16…23
	VPSUBD Y0, Y10, Y11       // bits 24…31
	VPCMPEQD Y12, Y12, Y12
	VPSLLD $31, Y12, Y12      // the sign bit
	MOVL $0x3f800000, R8
	VMOVD R8, X13
	VPBROADCASTD X13, Y13     // 1.0

expand:
	VPBROADCASTD (AX), Y0     // bits 0…31
	VPBROADCASTD 4(AX), Y1    // bits 32…63
	VPSLLVD Y8, Y0, Y2
	VPAND Y12, Y2, Y2
	VPOR Y13, Y2, Y2
	VMOVUPS Y2, (DI)
	VMOVUPS Y2, (SI)
	VPSLLVD Y9, Y0, Y3
	VPAND Y12, Y3, Y3
	VPOR Y13, Y3, Y3
	VMOVUPS Y3, 32(DI)
	VMOVUPS Y3, 32(SI)
	VPSLLVD Y10, Y0, Y4
	VPAND Y12, Y4, Y4
	VPOR Y13, Y4, Y4
	VMOVUPS Y4, 64(DI)
	VMOVUPS Y4, 64(SI)
	VPSLLVD Y11, Y0, Y5
	VPAND Y12, Y5, Y5
	VPOR Y13, Y5, Y5
	VMOVUPS Y5, 96(DI)
	VMOVUPS Y5, 96(SI)
	VPSLLVD Y8, Y1, Y2
	VPAND Y12, Y2, Y2
	VPOR Y13, Y2, Y2
	VMOVUPS Y2, 128(DI)
	VMOVUPS Y2, 128(SI)
	VPSLLVD Y9, Y1, Y3
	VPAND Y12, Y3, Y3
	VPOR Y13, Y3, Y3
	VMOVUPS Y3, 160(DI)
	VMOVUPS Y3, 160(SI)
	VPSLLVD Y10, Y1, Y4
	VPAND Y12, Y4, Y4
	VPOR Y13, Y4, Y4
	VMOVUPS Y4, 192(DI)
	VMOVUPS Y4, 192(SI)
	VPSLLVD Y11, Y1, Y5
	VPAND Y12, Y5, Y5
	VPOR Y13, Y5, Y5
	VMOVUPS Y5, 224(DI)
	VMOVUPS Y5, 224(SI)
	ADDQ $8, AX
	ADDQ $256, DI
	ADDQ $256, SI
	DECQ CX
	JNZ  expand
	VZEROUPPER
	RET

// func seedVec(total, llrs *float32, n int)
TEXT ·seedVec(SB), NOSPLIT, $0-24
	MOVQ total+0(FP), DI
	MOVQ llrs+8(FP), SI
	MOVQ n+16(FP), CX
	SHLQ $2, CX
	VXORPS Y0, Y0, Y0
	XORQ AX, AX

seed:
	VADDPS (SI)(AX*1), Y0, Y1 // llr + 0
	VMOVUPS Y1, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  seed
	VZEROUPPER
	RET

// rowVec's modes, the steps it runs on each chunk (kernels_amd64.go).
#define rowLoad 1
#define rowFold 2
#define rowStore 4
#define rowWriteBack 8

// func rowVec(blocks *circulant, nb int, ctv, total, next *float32, t int, alpha float32, min1, min2, parity *uint32, mode int)
//
// Chunk-major: for each 8-check chunk k0…k0+7 the kernel folds every
// block into min1, min2 and parity held in registers, scales, then
// writes every block back. Lane i of a block's chunk meets belief
// col+p+i, p = (k0+shift) mod t; when p > t−8 the chunk wraps, and its
// beliefs come from the windows col[t−8, t) and col[0, 8), each
// rotated by VPERMD and selected lane by lane, and go back by two
// VPMASKMOVD stores. The argmin is not carried: the edge whose
// magnitude equals min1 takes min2, and where several do, a tie has
// made min2 = min1, so the portable kernel's first-in-column-order
// choice gives the same message. mode picks the steps, so that a row
// too wide for one pass runs as groups of blocks that hand the
// chunk's accumulators on through memory. The fold prefetches the
// line after each block's messages and beliefs, the write-back the
// line after its next beliefs: at T=1024, where blocks sit 4 KiB
// apart, that made a row about 20% faster.
TEXT ·rowVec(SB), NOSPLIT, $0-88
	MOVQ ctv+16(FP), SI       // the chunk's message in block 0
	MOVQ total+24(FP), DI
	MOVQ next+32(FP), DX
	MOVQ t+40(FP), R10
	LEAQ -8(R10), R9          // chunks at p > t−8 wrap
	LEAQ wrapTab<>(SB), R12
	VBROADCASTSS alpha+48(FP), Y15
	VPCMPEQD Y14, Y14, Y14
	VPSRLD $1, Y14, Y14       // 0x7fffffff: clears the sign
	MOVL $0x7f7fffff, AX
	VMOVD AX, X13
	VPBROADCASTD X13, Y13     // emptyMag
	XORQ R11, R11             // k0

chunk:
	MOVQ mode+80(FP), R8
	TESTQ $rowLoad, R8
	JNZ  load
	VMOVDQU Y13, Y0           // min1
	VMOVDQU Y13, Y1           // min2
	VPXOR Y3, Y3, Y3          // parity
	JMP  loaded

load:
	MOVQ min1+56(FP), AX
	VMOVDQU (AX)(R11*4), Y0
	MOVQ min2+64(FP), AX
	VMOVDQU (AX)(R11*4), Y1
	MOVQ parity+72(FP), AX
	VMOVDQU (AX)(R11*4), Y3

loaded:
	TESTQ $rowFold, R8
	JZ   scale
	MOVQ blocks+0(FP), R13
	MOVQ nb+8(FP), CX
	MOVQ SI, BX

fold:
	MOVQ 0(R13), AX           // col
	MOVQ 8(R13), R14
	ADDQ R11, R14
	CMPQ R14, R10
	JLT  foldpos
	SUBQ R10, R14             // p

foldpos:
	CMPQ R14, R9
	JGT  foldwrap
	ADDQ AX, R14
	VMOVUPS (DI)(R14*4), Y4
	PREFETCHT0 64(DI)(R14*4)

fold1:
	PREFETCHT0 64(BX)
	VSUBPS (BX), Y4, Y4       // vtc = total - ctv
	VMOVUPS Y4, (BX)
	VPXOR Y4, Y3, Y3          // parity ^= bits
	VPAND Y14, Y4, Y4         // m
	VPMAXUD Y4, Y0, Y5
	VPMINUD Y5, Y1, Y1        // min2 = min(min2, max(m, min1))
	VPMINUD Y4, Y0, Y0        // min1 = min(min1, m)
	LEAQ (BX)(R10*4), BX
	ADDQ $16, R13
	DECQ CX
	JNZ  fold

	MOVQ mode+80(FP), R8
	TESTQ $rowStore, R8
	JZ   stored
	MOVQ min1+56(FP), AX
	VMOVDQU Y0, (AX)(R11*4)
	MOVQ min2+64(FP), AX
	VMOVDQU Y1, (AX)(R11*4)
	MOVQ parity+72(FP), AX
	VMOVDQU Y3, (AX)(R11*4)

stored:
	TESTQ $rowWriteBack, R8
	JZ   nextchunk

scale:
	VMULPS Y15, Y1, Y1        // alpha·min2
	VMULPS Y15, Y0, Y2        // alpha·min1; Y0 keeps min1
	MOVQ blocks+0(FP), R13
	MOVQ nb+8(FP), CX
	MOVQ SI, BX

writeback:
	VMOVDQU (BX), Y4          // vtc
	VPAND Y14, Y4, Y5
	VPCMPEQD Y0, Y5, Y5       // m == min1
	VPAND Y1, Y5, Y6
	VPANDN Y2, Y5, Y5
	VPOR Y6, Y5, Y5           // mag
	VPXOR Y3, Y4, Y4
	VPANDN Y4, Y14, Y4
	VPOR Y4, Y5, Y5           // msg = mag | (vtc ^ parity) & sign
	VMOVDQU Y5, (BX)
	MOVQ 0(R13), AX
	MOVQ 8(R13), R14
	ADDQ R11, R14
	CMPQ R14, R10
	JLT  wbpos
	SUBQ R10, R14

wbpos:
	CMPQ R14, R9
	JGT  wbwrap
	ADDQ AX, R14
	PREFETCHT0 64(DX)(R14*4)
	VMOVUPS (DX)(R14*4), Y6
	VADDPS Y5, Y6, Y6         // next + msg
	VMOVUPS Y6, (DX)(R14*4)

wb1:
	LEAQ (BX)(R10*4), BX
	ADDQ $16, R13
	DECQ CX
	JNZ  writeback

nextchunk:
	ADDQ $32, SI
	ADDQ $8, R11
	CMPQ R11, R10
	JLT  chunk
	VZEROUPPER
	RET

// Lane i < r = t−p reads col[p+i], lane 8−r+i of the tail window; lane
// i ≥ r reads col[i−r], lane i−r of the head window: both are index
// (i−r)&7, entry r of wrapTab, at lane 8−r = p−(t−8).
foldwrap:
	MOVQ R14, R8
	SUBQ R9, R8
	LEAQ (AX)(R9*1), R14      // the tail window
	VMOVDQU (R12)(R8*4), Y6
	VPERMD (DI)(R14*4), Y6, Y4
	VPERMD (DI)(AX*4), Y6, Y5
	VMOVDQU 64(R12)(R8*4), Y7 // lanes i < r
	VPAND Y7, Y4, Y4
	VPANDN Y5, Y7, Y5
	VPOR Y5, Y4, Y4
	JMP  fold1

// The inverse: window lane j takes message lane (j+r)&7, entry q = 8−r
// of wrapTab at lane r, and lanes j < q go to the head window, the
// rest to the tail window.
wbwrap:
	MOVQ R10, R8
	SUBQ R14, R8
	LEAQ (AX)(R9*1), R14      // the tail window
	VMOVDQU (R12)(R8*4), Y6
	VPERMD Y5, Y6, Y5
	VMOVDQU 64(R12)(R8*4), Y7 // lanes j < q
	VPCMPEQD Y8, Y8, Y8
	VPXOR Y8, Y7, Y8          // lanes j ≥ q
	VMOVUPS (DX)(R14*4), Y6
	VADDPS Y5, Y6, Y6
	VPMASKMOVD Y6, Y8, (DX)(R14*4)
	VMOVUPS (DX)(AX*4), Y6
	VADDPS Y5, Y6, Y6
	VPMASKMOVD Y6, Y7, (DX)(AX*4)
	JMP  wb1

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
