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
// (kernels_amd64.s). The row kernel takes whole 8-check chunks, so the
// set fits circulant sizes that are a multiple of 8; the entry and
// pack kernels finish the beliefs past the last whole vector with the
// portable kernel.
var avx2Kernels = kernelSet{
	name:   "avx2",
	lanes:  8,
	expand: expandAVX2,
	seed:   seedAVX2,
	row:    rowAVX2,
	pack:   packAVX2,
}

func cpuid(leaf, sub uint32) (a, b, c, d uint32)
func xgetbv0() uint32

// The assembly kernels take whole vectors: expandVec and packVec n > 0
// words of 64 beliefs, seedVec n > 0 beliefs, a multiple of 8, and
// rowVec nb > 0 blocks of a circulant size t, a positive multiple of 8.
// The wrappers check every slice's length first.

//go:noescape
func expandVec(llrs, total *float32, words *uint64, n int)

//go:noescape
func seedVec(total, llrs *float32, n int)

// rowVec reads each circulant as two words, col at offset 0 and shift
// at offset 8.
//
//go:noescape
func rowVec(blocks *circulant, nb int, ctv, total, next *float32, t int, alpha float32, min1, min2, parity *uint32, mode int)

// rowVec's modes (kernels_amd64.s): the steps it runs on each chunk.
const (
	rowLoad      = 1 << iota // start from the accumulators in memory, not empty ones
	rowFold                  // fold the blocks' messages
	rowStore                 // store the accumulators
	rowWriteBack             // scale, and write the blocks' messages back
)

//go:noescape
func packVec(words *uint64, total *float32, n int)

//riflint:hotpath
func expandAVX2(llrs, total []float32, words []uint64) {
	n := min(len(words), len(llrs)/64)
	if n > 0 {
		_ = total[n*64-1]
		expandVec(&llrs[0], &total[0], &words[0], n)
	}
	expandBits(llrs[n*64:], total[n*64:], words[n:])
}

//riflint:hotpath
func seedAVX2(total, llrs []float32) {
	n := len(llrs) &^ 7
	if n > 0 {
		_ = total[n-1]
		seedVec(&total[0], &llrs[0], n)
	}
	seedBeliefs(total[n:], llrs[n:])
}

// rowAVX2 runs the row in one rowVec pass, every chunk's accumulators
// held in registers from its first fold to its last write-back, unless
// the row is too wide for the L1 cache (rowGroup).
//
//riflint:hotpath
func rowAVX2(a *checkAccs, blocks []circulant, ctv, total, next []float32, alpha float32) {
	rowGroups(a, blocks, ctv, total, next, alpha, rowGroup(len(a.min1), len(blocks)))
}

// rowGroup is how many blocks one rowVec pass takes. A chunk's
// messages sit 4T bytes apart from block to block, so a pass of g
// blocks puts g·T/1024 of their lines in each of the L1 sets it uses
// (all g beyond T=1024), and lines past the cache's ways evict each
// other between a chunk's fold and its write-back. Up to T=256, where
// the hardware prefetcher follows the stride, nine lines a set cost
// nothing, so a 36-block row runs in one pass; above it, a one-pass
// row of 33 blocks was twice as slow at T=1024 as the block-major
// loops, and passes of at most six lines a set (and six blocks) were
// fastest on a 48-KiB 12-way L1. A row wider than that runs in equal
// groups.
func rowGroup(t, nb int) int {
	most := 9216 / max(t, 1)
	if t > 256 {
		most = max(6, 6144/t)
	}
	groups := max(1, (nb+most-1)/most)
	return (nb + groups - 1) / groups
}

// rowGroups runs the row's blocks through rowVec g at a time: each
// group but the last folds into the accumulators in a, the last folds
// and writes back at once, and then the others write back.
//
//riflint:hotpath
func rowGroups(a *checkAccs, blocks []circulant, ctv, total, next []float32, alpha float32, g int) {
	t, nb := len(a.min1), len(blocks)
	if t == 0 || t%8 != 0 || len(ctv) != nb*t || len(a.min2) < t || len(a.parity) < t || g < 1 {
		panic("ldpc: row kernel shape mismatch")
	}
	cols := min(len(total), len(next))
	for _, blk := range blocks {
		if uint(blk.shift) >= uint(t) || blk.col < 0 || blk.col > cols-t {
			panic("ldpc: circulant outside the beliefs")
		}
	}
	if nb == 0 {
		return
	}
	min1, min2, parity := &a.min1[0], &a.min2[0], &a.parity[0]
	last := (nb - 1) / g * g // the last group's first block
	for lo := 0; lo < last; lo += g {
		mode := rowFold | rowStore
		if lo > 0 {
			mode |= rowLoad
		}
		rowVec(&blocks[lo], g, &ctv[lo*t], &total[0], &next[0], t, alpha, min1, min2, parity, mode)
	}
	mode := rowFold | rowWriteBack
	if last > 0 {
		mode |= rowLoad | rowStore
	}
	rowVec(&blocks[last], nb-last, &ctv[last*t], &total[0], &next[0], t, alpha, min1, min2, parity, mode)
	for lo := 0; lo < last; lo += g {
		rowVec(&blocks[lo], g, &ctv[lo*t], &total[0], &next[0], t, alpha, min1, min2, parity, rowLoad|rowWriteBack)
	}
}

//riflint:hotpath
func packAVX2(words []uint64, total []float32) {
	n := min(len(words), len(total)/64)
	if n > 0 {
		packVec(&words[0], &total[0], n)
	}
	packSigns(words[n:], total[n*64:])
}
