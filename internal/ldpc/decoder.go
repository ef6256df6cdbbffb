package ldpc

import "math"

// DefaultMaxIterations is the decoding iteration cap used in the paper
// (§II-B1: "a preset maximum number of iterations (e.g., 20)").
const DefaultMaxIterations = 20

// Result reports the outcome of a decode attempt.
type Result struct {
	// OK is true when every parity check is satisfied.
	OK bool
	// Iterations is the number of message-passing rounds executed, in
	// [1, max]. The paper maps this to tECC.
	Iterations int
	// Word is the corrected codeword (equal to the input when OK is
	// false and no useful correction was found). It aliases
	// decoder-owned scratch: it is valid until the next
	// Decode/DecodeSoft call on the same decoder — Clone it to retain
	// it longer.
	Word Bits
}

// MinSumDecoder is a normalized min-sum LDPC decoder operating on
// hard-decision channel outputs (the flash read path senses hard
// bits). The zero value is not usable; construct with NewMinSumDecoder.
//
// Messages are stored circulant-major: one T-wide run of
// check-to-variable messages per non-zero block of H, blocks in
// row-major order, so message k of block (bi, bj) belongs to check
// bi·T+k and variable bj·T+(k+shift)%T. Both half-iterations are then
// straight loops over two contiguous ranges per block, with no index
// gather. The loops run in a kernel set (kernels.go) picked once per
// decoder: AVX2 where the CPU has it, portable Go otherwise.
type MinSumDecoder struct {
	code    *Code
	maxIter int
	alpha   float32 // normalization factor
	kern    *kernelSet

	// blocks lists H's non-zero circulants in row-major order;
	// rowOff[bi] is the first block of block row bi.
	blocks []circulant
	rowOff []int

	// Per-decode scratch, reused across calls so steady-state decoding
	// allocates nothing. The decoder is NOT safe for concurrent use;
	// create one per goroutine.
	ctv   []float32 // [block][k] check-to-variable messages
	total []float32 // per-variable belief
	next  []float32 // the next iteration's beliefs, summed by checkUpdate
	acc   checkAccs // one block row's check accumulators, T wide
	llrs  []float32 // hard-decision LLRs (Decode)
	work  Bits      // decision word; Result.Word aliases it
	syn   *synWS    // parity-check workspace
}

// circulant is one non-zero block of H: its first variable (bj·T) and
// its shift.
type circulant struct {
	col, shift int
}

// NewMinSumDecoder builds a decoder for the code with the given
// iteration cap (0 means DefaultMaxIterations).
func NewMinSumDecoder(code *Code, maxIter int) *MinSumDecoder {
	return newMinSumDecoder(code, maxIter, kernelSets[0])
}

func newMinSumDecoder(code *Code, maxIter int, kern *kernelSet) *MinSumDecoder {
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	var blocks []circulant
	rowOff := make([]int, code.R+1)
	for bi := 0; bi < code.R; bi++ {
		rowOff[bi] = len(blocks)
		for bj := 0; bj < code.C; bj++ {
			if sh := code.Shifts[bi][bj]; sh != ZeroBlock {
				blocks = append(blocks, circulant{col: bj * code.T, shift: sh})
			}
		}
	}
	rowOff[code.R] = len(blocks)
	return &MinSumDecoder{
		code:    code,
		maxIter: maxIter,
		alpha:   0.75,
		kern:    kern,
		blocks:  blocks,
		rowOff:  rowOff,
		ctv:     make([]float32, len(blocks)*code.T),
		total:   make([]float32, code.N()),
		next:    make([]float32, code.N()),
		acc:     newCheckAccs(code.T),
		llrs:    make([]float32, code.N()),
		work:    NewBits(code.N()),
		syn:     newSynWS(code.T),
	}
}

// MaxIterations reports the decoder's iteration cap.
func (d *MinSumDecoder) MaxIterations() int { return d.maxIter }

// Decode attempts to correct the received hard-decision codeword.
// The input is not modified. The Result's Word aliases decoder
// scratch (see Result.Word).
//
//riflint:hotpath
func (d *MinSumDecoder) Decode(received Bits) Result {
	n := d.code.N()
	if received.Len() != n {
		panic("ldpc: received length mismatch")
	}
	// Hard input: the sign carries all the information, so a set bit
	// becomes -1 and a clear one +1.
	for w, word := range received.words {
		lo := w * 64
		for i := range d.llrs[lo:min(lo+64, n)] {
			d.llrs[lo+i] = math.Float32frombits(math.Float32bits(1) | uint32(word>>i&1)<<31)
		}
	}
	return d.DecodeSoft(d.llrs)
}

// DecodeSoft attempts to correct a codeword from per-bit channel
// log-likelihood ratios (positive = bit 0 more likely). Soft inputs —
// obtained by extra senses at offset read voltages — let the decoder
// correct pages beyond the hard-decision capability, the modern
// last-resort retry step.
//
// The domain is finite LLRs whose messages stay finite over the
// iteration cap (magnitudes up to 1e30 are tested); ±0 and subnormals
// are fine. NaN or ±Inf inputs give unspecified results.
//
//riflint:hotpath
func (d *MinSumDecoder) DecodeSoft(llrs []float32) Result {
	if len(llrs) != d.code.N() {
		panic("ldpc: llr length mismatch")
	}
	clear(d.ctv)
	// The first beliefs are each LLR plus its cleared messages, which is
	// llr + 0: a −0 LLR becomes +0.
	total := d.total[:len(llrs)]
	for v, x := range llrs {
		total[v] = x + 0
	}
	for iter := 1; iter <= d.maxIter; iter++ {
		d.kern.pack(d.work.words, d.total)
		if d.satisfied(d.work) {
			return Result{OK: true, Iterations: iter, Word: d.work}
		}
		// Each belief is its channel LLR plus its incoming messages,
		// added in block-row order: checkUpdate(bi) adds row bi's.
		copy(d.next, llrs)
		for bi := 0; bi < d.code.R; bi++ {
			d.checkUpdate(bi)
		}
		d.total, d.next = d.next, d.total
	}
	// Final hard decision after the last check update.
	d.kern.pack(d.work.words, d.total)
	return Result{OK: d.satisfied(d.work), Iterations: d.maxIter, Word: d.work}
}

// checkUpdate runs normalized min-sum on the T checks of block row bi:
// one pass folds each block's variable-to-check messages into the
// accumulators (leaving them in place of the old messages), a second
// writes alpha·min with the extrinsic sign back and adds each new
// message into its variable's next belief.
//
//riflint:hotpath
func (d *MinSumDecoder) checkUpdate(bi int) {
	t, kern, acc := d.code.T, d.kern, &d.acc
	kern.reset(acc)
	lo, hi := d.rowOff[bi], d.rowOff[bi+1]
	for b := lo; b < hi; b++ {
		blk := d.blocks[b]
		c := d.ctv[b*t : (b+1)*t]
		col := d.total[blk.col : blk.col+t]
		// Message k feeds variable (k+shift)%T of the block column.
		s := t - blk.shift
		kern.fold(acc, 0, c[:s], col[blk.shift:], int32(b))
		kern.fold(acc, s, c[s:], col[:blk.shift], int32(b))
	}
	kern.scale(acc, d.alpha)
	for b := lo; b < hi; b++ {
		blk := d.blocks[b]
		c := d.ctv[b*t : (b+1)*t]
		col := d.next[blk.col : blk.col+t]
		s := t - blk.shift
		kern.writeBack(acc, 0, c[:s], col[blk.shift:], int32(b))
		kern.writeBack(acc, s, c[s:], col[:blk.shift], int32(b))
	}
}

func (d *MinSumDecoder) satisfied(cw Bits) bool {
	// Cheap full-syndrome check via the circulant structure, using the
	// decoder's workspace and bailing at the first unsatisfied block
	// row.
	return d.code.syndromeIsZero(cw, d.syn)
}
