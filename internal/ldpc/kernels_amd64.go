package ldpc

// availableKernels lists the kernel sets this CPU runs, fastest first:
// the AVX2 set where CPUID reports AVX and AVX2 and the OS saves the
// YMM registers (OSXSAVE set, and XCR0 enabling the XMM and YMM state).
func availableKernels() []*kernelSet {
	if hasAVX2() {
		return []*kernelSet{&avx2Kernels, &goKernels}
	}
	return []*kernelSet{&goKernels}
}

func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 || xgetbv0()&6 != 6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&(1<<5) != 0
}

// avx2Kernels runs each loop eight lanes at a time in assembly
// (kernels_amd64.s) and finishes the last len%8 elements with the
// portable kernel.
var avx2Kernels = kernelSet{
	name:      "avx2",
	reset:     resetAVX2,
	fold:      foldAVX2,
	scale:     scaleAVX2,
	writeBack: writeBackAVX2,
	pack:      packAVX2,
}

func cpuid(leaf, sub uint32) (a, b, c, d uint32)
func xgetbv0() uint32

// The assembly kernels take n > 0 elements, a multiple of 8 (packVec:
// n > 0 whole words); the wrappers check every slice's length first.

//go:noescape
func resetVec(min1, min2, minBlk, parity *uint32, n int)

//go:noescape
func foldVec(min1, min2, minBlk, parity *uint32, ctv, total *float32, n int, blk int32)

//go:noescape
func scaleVec(min1, min2 *uint32, n int, alpha float32)

//go:noescape
func writeBackVec(min1, min2, minBlk, parity *uint32, ctv, next *float32, n int, blk int32)

//go:noescape
func packVec(words *uint64, total *float32, n int)

// vecEnd is the end of the part of checks [lo, lo+n) the assembly
// kernels take: whole vectors, with every accumulator slice long
// enough.
func vecEnd(a *checkAccs, lo, n int) int {
	hi := lo + n&^7
	if hi > lo {
		_, _, _, _ = a.min1[hi-1], a.min2[hi-1], a.minBlk[hi-1], a.parity[hi-1]
	}
	return hi
}

//riflint:hotpath
func resetAVX2(a *checkAccs) {
	n := vecEnd(a, 0, len(a.min1))
	if n > 0 {
		resetVec(&a.min1[0], &a.min2[0], &a.minBlk[0], &a.parity[0], n)
	}
	resetAccs(a, n)
}

//riflint:hotpath
func foldAVX2(a *checkAccs, lo int, ctv, total []float32, blk int32) {
	hi := vecEnd(a, lo, len(ctv))
	n := hi - lo
	if n > 0 {
		_ = total[n-1]
		foldVec(&a.min1[lo], &a.min2[lo], &a.minBlk[lo], &a.parity[lo], &ctv[0], &total[0], n, blk)
	}
	foldChecks(a, hi, ctv[n:], total[n:], blk)
}

//riflint:hotpath
func scaleAVX2(a *checkAccs, alpha float32) {
	n := vecEnd(a, 0, len(a.min1))
	if n > 0 {
		scaleVec(&a.min1[0], &a.min2[0], n, alpha)
	}
	scaleAccs(a, n, alpha)
}

//riflint:hotpath
func writeBackAVX2(a *checkAccs, lo int, ctv, next []float32, blk int32) {
	hi := vecEnd(a, lo, len(ctv))
	n := hi - lo
	if n > 0 {
		_ = next[n-1]
		writeBackVec(&a.min1[lo], &a.min2[lo], &a.minBlk[lo], &a.parity[lo], &ctv[0], &next[0], n, blk)
	}
	writeBack(a, hi, ctv[n:], next[n:], blk)
}

//riflint:hotpath
func packAVX2(words []uint64, total []float32) {
	n := min(len(words), len(total)/64)
	if n > 0 {
		packVec(&words[0], &total[0], n)
	}
	packSigns(words[n:], total[n*64:])
}
