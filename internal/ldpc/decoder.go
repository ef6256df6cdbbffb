package ldpc

import "slices"

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
// decoder: AVX2 where the CPU has it and T is a multiple of 8,
// portable Go otherwise.
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
	next  []float32 // the next iteration's beliefs, summed by the row kernel
	acc   checkAccs // the row kernels' check accumulators, T wide
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
	// The last set, the portable one, fits every T.
	i := slices.IndexFunc(kernelSets, func(k *kernelSet) bool { return k.fits(code.T) })
	return newMinSumDecoder(code, maxIter, kernelSets[i])
}

func newMinSumDecoder(code *Code, maxIter int, kern *kernelSet) *MinSumDecoder {
	if !kern.fits(code.T) {
		panic("ldpc: kernel set does not fit the circulant size")
	}
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
	if received.Len() != d.code.N() {
		panic("ldpc: received length mismatch")
	}
	// Hard input: the sign carries all the information, so a set bit
	// becomes -1 and a clear one +1, and so do the first beliefs.
	d.kern.expand(d.llrs, d.total, received.words)
	return d.decode(d.llrs)
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
	d.kern.seed(d.total, llrs)
	return d.decode(llrs)
}

// decode iterates from the first beliefs in d.total, which are the
// LLRs plus their cleared messages.
//
//riflint:hotpath
func (d *MinSumDecoder) decode(llrs []float32) Result {
	clear(d.ctv)
	t := d.code.T
	for iter := 1; iter <= d.maxIter; iter++ {
		d.kern.pack(d.work.words, d.total)
		if d.satisfied(d.work) {
			return Result{OK: true, Iterations: iter, Word: d.work}
		}
		// Each belief is its channel LLR plus its incoming messages,
		// added in block-row order.
		copy(d.next, llrs)
		for bi := 0; bi < d.code.R; bi++ {
			lo, hi := d.rowOff[bi], d.rowOff[bi+1]
			d.kern.row(&d.acc, d.blocks[lo:hi], d.ctv[lo*t:hi*t], d.total, d.next, d.alpha)
		}
		d.total, d.next = d.next, d.total
	}
	// Final hard decision after the last check update.
	d.kern.pack(d.work.words, d.total)
	return Result{OK: d.satisfied(d.work), Iterations: d.maxIter, Word: d.work}
}

func (d *MinSumDecoder) satisfied(cw Bits) bool {
	// Cheap full-syndrome check via the circulant structure, using the
	// decoder's workspace and bailing at the first unsatisfied block
	// row.
	return d.code.syndromeIsZero(cw, d.syn)
}
