package ldpc

import "math"

// checkAccs holds one block row's T check accumulators as four parallel
// slices, so a vector kernel loads eight checks per step: the two
// smallest magnitudes (as sign-cleared float32 bits, which order like
// the floats they encode), the block holding the first minimum (−1
// before any), and the sign parity in bit 31. Element k of each slice
// belongs to check k of the block row.
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

// kernelSet is one implementation of the loops of a min-sum iteration
// that visit every edge or every bit. Every set computes the same bits;
// NewMinSumDecoder takes the fastest one this CPU runs.
// The decoder calls fold and writeBack on each block's two contiguous
// ranges (see MinSumDecoder): element i of ctv and of total or next
// belongs to check lo+i, and a range has any length in [0, T].
type kernelSet struct {
	name string
	// reset empties every accumulator.
	reset func(a *checkAccs)
	// fold folds one block's variable-to-check messages total−ctv into
	// the accumulators and leaves them in ctv.
	fold func(a *checkAccs, lo int, ctv, total []float32, blk int32)
	// scale multiplies min1 and min2 by alpha.
	scale func(a *checkAccs, alpha float32)
	// writeBack replaces each variable-to-check message in ctv with the
	// new check-to-variable message and adds that into next.
	writeBack func(a *checkAccs, lo int, ctv, next []float32, blk int32)
	// pack sets bit i of the decision words iff total[i] < 0.
	pack func(words []uint64, total []float32)
}

// kernelSets lists the kernel sets this CPU runs, fastest first.
var kernelSets = availableKernels()

// goKernels is the portable set. The vector sets finish with it the
// ranges that do not fill a whole vector.
var goKernels = kernelSet{
	name:      "go",
	reset:     func(a *checkAccs) { resetAccs(a, 0) },
	fold:      foldChecks,
	scale:     func(a *checkAccs, alpha float32) { scaleAccs(a, 0, alpha) },
	writeBack: writeBack,
	pack:      packSigns,
}

//riflint:hotpath
func resetAccs(a *checkAccs, lo int) {
	min1 := a.min1[lo:]
	n := len(min1)
	min2, minBlk, parity := a.min2[lo:lo+n], a.minBlk[lo:lo+n], a.parity[lo:lo+n]
	for k := range min1 {
		min1[k], min2[k], minBlk[k], parity[k] = emptyMag, emptyMag, noBlock, 0
	}
}

// foldChecks is the portable fold. A strict < keeps the first minimum
// in column order; min2 = min(min2, max(m, min1)) is the branchless
// form of the two-way update. A message is never −0 (a float sum is −0
// only when every term is, and then total−ctv is +0), so its sign bit
// is exactly "vtc < 0".
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
func scaleAccs(a *checkAccs, lo int, alpha float32) {
	min1 := a.min1[lo:]
	min2 := a.min2[lo : lo+len(min1)]
	for k, m := range min1 {
		min1[k] = math.Float32bits(alpha * math.Float32frombits(m))
		min2[k] = math.Float32bits(alpha * math.Float32frombits(min2[k]))
	}
}

// writeBack is the portable write-back: ctv holds each edge's
// variable-to-check message, and the extrinsic sign is its sign times
// every other edge's.
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
