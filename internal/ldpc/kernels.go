package ldpc

import "math"

// checkAccs holds one block row's T check accumulators as four parallel
// slices, the portable row kernel's scratch: the two smallest
// magnitudes (as sign-cleared float32 bits, which order like the floats
// they encode), the block holding the first minimum (−1 before any),
// and the sign parity in bit 31. Element k of each slice belongs to
// check k of the block row.
type checkAccs struct {
	min1, min2, minBlk, parity []uint32
}

func newCheckAccs(t int) checkAccs {
	s := make([]uint32, 4*t)
	return checkAccs{min1: s[:t:t], min2: s[t : 2*t : 2*t], minBlk: s[2*t : 3*t : 3*t], parity: s[3*t:]}
}

const (
	signBit = 1 << 31
	// emptyMag is the magnitude an accumulator starts from: MaxFloat32's
	// bits, as the edge-list decoder starts its minima at MaxFloat32.
	emptyMag = 0x7f7fffff
	// noBlock is an accumulator's argmin block before any fold, int32(−1).
	noBlock = math.MaxUint32
)

// kernelSet is one implementation of the loops of a decode that visit
// every edge or every bit. Every set computes the same bits;
// NewMinSumDecoder takes the fastest one this CPU runs that fits the
// code's circulant size.
type kernelSet struct {
	name string
	// lanes is the circulant sizes the set takes: T a multiple of lanes.
	lanes int
	// expand writes the ±1 LLRs of the hard bits in words (a set bit is
	// −1) into llrs and into total, the first beliefs (llr + 0 is llr).
	expand func(llrs, total []float32, words []uint64)
	// seed writes the first beliefs of soft LLRs, total = llr + 0: each
	// LLR plus its cleared messages, so a −0 LLR becomes +0.
	seed func(total, llrs []float32)
	// row runs normalized min-sum on the T checks of one block row.
	// blocks are the row's non-zero circulants in column order and ctv
	// their messages, T per block, message k of a block belonging to
	// check k and variable col+(k+shift)%T. Each message is replaced by
	// alpha·min over the check's other edges, with their sign parity,
	// computed from the beliefs in total, and added into its variable's
	// belief in next. a is T-wide scratch; T is len(a.min1).
	row func(a *checkAccs, blocks []circulant, ctv, total, next []float32, alpha float32)
	// pack sets bit i of the decision words iff total[i] < 0.
	pack func(words []uint64, total []float32)
}

// fits reports whether the set takes circulant size t.
func (k *kernelSet) fits(t int) bool { return t%k.lanes == 0 }

// kernelSets lists the kernel sets this CPU runs, fastest first. The
// last, the portable set, fits every circulant size.
var kernelSets = availableKernels()

// goKernels is the portable set. The vector sets finish with it the
// elements that do not fill a whole vector.
var goKernels = kernelSet{
	name:   "go",
	lanes:  1,
	expand: expandBits,
	seed:   seedBeliefs,
	row:    rowChecks,
	pack:   packSigns,
}

// expandBits is the portable hard-decision entry.
//
//riflint:hotpath
func expandBits(llrs, total []float32, words []uint64) {
	total = total[:len(llrs)]
	for w, word := range words {
		lo := w * 64
		for i := range llrs[lo:min(lo+64, len(llrs))] {
			x := math.Float32frombits(math.Float32bits(1) | uint32(word>>i&1)<<31)
			llrs[lo+i], total[lo+i] = x, x
		}
	}
}

// seedBeliefs is the portable soft entry.
//
//riflint:hotpath
func seedBeliefs(total, llrs []float32) {
	total = total[:len(llrs)]
	for v, x := range llrs {
		total[v] = x + 0
	}
}

// rowChecks is the portable row kernel, block-major over T-wide
// accumulators: one pass folds each block's variable-to-check messages
// into them (leaving the messages in place of the old ones), a second
// writes alpha·min with the extrinsic sign back and adds each new
// message into its variable's next belief. Each block's messages meet
// the block column in two contiguous ranges, split where (k+shift)%T
// wraps.
//
//riflint:hotpath
func rowChecks(a *checkAccs, blocks []circulant, ctv, total, next []float32, alpha float32) {
	t := len(a.min1)
	resetAccs(a)
	for b, blk := range blocks {
		c := ctv[b*t : (b+1)*t]
		col := total[blk.col : blk.col+t]
		s := t - blk.shift
		foldChecks(a, 0, c[:s], col[blk.shift:], int32(b))
		foldChecks(a, s, c[s:], col[:blk.shift], int32(b))
	}
	scaleAccs(a, alpha)
	for b, blk := range blocks {
		c := ctv[b*t : (b+1)*t]
		col := next[blk.col : blk.col+t]
		s := t - blk.shift
		writeBack(a, 0, c[:s], col[blk.shift:], int32(b))
		writeBack(a, s, c[s:], col[:blk.shift], int32(b))
	}
}

//riflint:hotpath
func resetAccs(a *checkAccs) {
	min1 := a.min1
	n := len(min1)
	min2, minBlk, parity := a.min2[:n], a.minBlk[:n], a.parity[:n]
	for k := range min1 {
		min1[k], min2[k], minBlk[k], parity[k] = emptyMag, emptyMag, noBlock, 0
	}
}

// foldChecks folds one range of a block's messages into checks
// [lo, lo+len(ctv)). A strict < keeps the first minimum in column
// order; min2 = min(min2, max(m, min1)) is the branchless form of the
// two-way update. A message is never −0 (a float sum is −0 only when
// every term is, and then total−ctv is +0), so its sign bit is exactly
// "vtc < 0".
//
//riflint:hotpath
func foldChecks(a *checkAccs, lo int, ctv, total []float32, blk int32) {
	n := len(ctv)
	min1, min2, minBlk, parity := a.min1[lo:lo+n], a.min2[lo:lo+n], a.minBlk[lo:lo+n], a.parity[lo:lo+n]
	total = total[:n]
	for k := range ctv {
		vtc := total[k] - ctv[k]
		ctv[k] = vtc
		bits := math.Float32bits(vtc)
		parity[k] ^= bits
		m, m1, mb := bits&^signBit, min1[k], minBlk[k]
		if m < m1 {
			mb = uint32(blk)
		}
		minBlk[k] = mb
		min2[k] = min(min2[k], max(m, m1))
		min1[k] = min(m1, m)
	}
}

// scaleAccs scales the minima: alpha·(±mag) is ±(alpha·mag) exactly,
// so the write-back attaches each message's sign afterwards.
//
//riflint:hotpath
func scaleAccs(a *checkAccs, alpha float32) {
	min1 := a.min1
	min2 := a.min2[:len(min1)]
	for k, m := range min1 {
		min1[k] = math.Float32bits(alpha * math.Float32frombits(m))
		min2[k] = math.Float32bits(alpha * math.Float32frombits(min2[k]))
	}
}

// writeBack writes back one range of a block's messages: ctv holds each
// edge's variable-to-check message, and the extrinsic sign is its sign
// times every other edge's.
//
//riflint:hotpath
func writeBack(a *checkAccs, lo int, ctv, next []float32, blk int32) {
	n := len(ctv)
	min1, min2, minBlk, parity := a.min1[lo:lo+n], a.min2[lo:lo+n], a.minBlk[lo:lo+n], a.parity[lo:lo+n]
	next = next[:n]
	for k := range ctv {
		mag := min1[k]
		if minBlk[k] == uint32(blk) {
			mag = min2[k]
		}
		msg := math.Float32frombits(mag | (math.Float32bits(ctv[k])^parity[k])&signBit)
		ctv[k] = msg
		next[k] += msg
	}
}

// packSigns is the portable hard decision. x < 0 iff its bits exceed
// −0's (signBit): a belief is −0 when its LLR and every message are,
// and that is a 0 bit.
//
//riflint:hotpath
func packSigns(words []uint64, total []float32) {
	for w := range words {
		lo := w * 64
		var word uint64
		for i, x := range total[lo:min(lo+64, len(total))] {
			word |= uint64(int64(signBit)-int64(math.Float32bits(x))) >> 63 << i
		}
		words[w] = word
	}
}
