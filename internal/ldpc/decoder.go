package ldpc

import "math"

// DefaultMaxIterations is the decoding iteration cap used in the paper
// (§II-B1: "a preset maximum number of iterations (e.g., 20)").
const DefaultMaxIterations = 20

// Result reports the outcome of a decode attempt.
type Result struct {
	// OK is true when every parity check is satisfied.
	OK bool
	// Iterations is the number of message-passing (or bit-flipping)
	// rounds executed, in [1, max]. The paper maps this to tECC.
	Iterations int
	// Word is the corrected codeword (equal to the input when OK is
	// false and no useful correction was found). For MinSumDecoder it
	// aliases decoder-owned scratch: it is valid until the next
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
// gather.
type MinSumDecoder struct {
	code    *Code
	maxIter int
	alpha   float32 // normalization factor

	// blocks lists H's non-zero circulants in row-major order;
	// rowOff[bi] is the first block of block row bi.
	blocks []circulant
	rowOff []int

	// Per-decode scratch, reused across calls so steady-state decoding
	// allocates nothing. The decoder is NOT safe for concurrent use;
	// create one per goroutine.
	ctv   []float32  // [block][k] check-to-variable messages
	total []float32  // per-variable belief
	acc   []checkAcc // one block row's check accumulators, T wide
	llrs  []float32  // hard-decision LLRs (Decode)
	work  Bits       // decision word; Result.Word aliases it
	syn   *synWS     // parity-check workspace
}

// circulant is one non-zero block of H: its first variable (bj·T) and
// its shift.
type circulant struct {
	col, shift int
}

// checkAcc accumulates one check's min-sum state over its block row:
// the two smallest magnitudes (as sign-cleared float32 bits, which
// order like the floats they encode), the block holding the first
// minimum, and the sign parity in bit 31.
type checkAcc struct {
	min1, min2 uint32
	minBlk     int32
	parity     uint32
}

const signBit = 1 << 31

// NewMinSumDecoder builds a decoder for the code with the given
// iteration cap (0 means DefaultMaxIterations).
func NewMinSumDecoder(code *Code, maxIter int) *MinSumDecoder {
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
		blocks:  blocks,
		rowOff:  rowOff,
		ctv:     make([]float32, len(blocks)*code.T),
		total:   make([]float32, code.N()),
		acc:     make([]checkAcc, code.T),
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
	for iter := 1; iter <= d.maxIter; iter++ {
		d.variableUpdate(llrs)
		if d.satisfied(d.work) {
			return Result{OK: true, Iterations: iter, Word: d.work}
		}
		for bi := 0; bi < d.code.R; bi++ {
			d.checkUpdate(bi)
		}
	}
	// Final hard decision after the last check update.
	d.variableUpdate(llrs)
	return Result{OK: d.satisfied(d.work), Iterations: d.maxIter, Word: d.work}
}

// variableUpdate sets each variable's total belief to its channel LLR
// plus its incoming messages, added in block-row order, and packs the
// hard decision (total < 0) into d.work.
//
//riflint:hotpath
func (d *MinSumDecoder) variableUpdate(llrs []float32) {
	t := d.code.T
	copy(d.total, llrs)
	for b, blk := range d.blocks {
		c := d.ctv[b*t : (b+1)*t]
		col := d.total[blk.col : blk.col+t]
		// Message k feeds variable (k+shift)%T of the block column.
		addInto(col[blk.shift:], c[:t-blk.shift])
		addInto(col[:blk.shift], c[t-blk.shift:])
	}
	words := d.work.words
	for w := range words {
		lo := w * 64
		var word uint64
		for i, x := range d.total[lo:min(lo+64, len(d.total))] {
			// x < 0 iff its bits exceed −0's (signBit); total is −0
			// when its LLR and every message are.
			word |= uint64(int64(signBit)-int64(math.Float32bits(x))) >> 63 << i
		}
		words[w] = word
	}
}

// addInto adds src into dst elementwise; len(src) ≥ len(dst).
//
//riflint:hotpath
func addInto(dst, src []float32) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] += src[i]
	}
}

// checkUpdate runs normalized min-sum on the T checks of block row bi:
// one pass folds each block's variable-to-check messages into the
// accumulators (leaving them in place of the old messages), a second
// writes alpha·min with the extrinsic sign back.
//
//riflint:hotpath
func (d *MinSumDecoder) checkUpdate(bi int) {
	t := d.code.T
	acc := d.acc
	for k := range acc {
		acc[k] = checkAcc{min1: math.Float32bits(math.MaxFloat32), min2: math.Float32bits(math.MaxFloat32), minBlk: -1}
	}
	lo, hi := d.rowOff[bi], d.rowOff[bi+1]
	for b := lo; b < hi; b++ {
		blk := d.blocks[b]
		c := d.ctv[b*t : (b+1)*t]
		col := d.total[blk.col : blk.col+t]
		foldChecks(acc[:t-blk.shift], c[:t-blk.shift], col[blk.shift:], int32(b))
		foldChecks(acc[t-blk.shift:], c[t-blk.shift:], col[:blk.shift], int32(b))
	}
	// alpha·(±mag) is ±(alpha·mag) exactly, so scale the magnitudes once
	// and attach each message's sign afterwards.
	for k := range acc {
		acc[k].min1 = math.Float32bits(d.alpha * math.Float32frombits(acc[k].min1))
		acc[k].min2 = math.Float32bits(d.alpha * math.Float32frombits(acc[k].min2))
	}
	for b := lo; b < hi; b++ {
		c := d.ctv[b*t : (b+1)*t]
		c = c[:len(acc)]
		for k := range acc {
			a := &acc[k]
			mag, min2 := a.min1, a.min2
			if a.minBlk == int32(b) {
				mag = min2
			}
			// c[k] holds this edge's variable-to-check message; the
			// extrinsic sign is its sign times every other edge's.
			c[k] = math.Float32frombits(mag | (math.Float32bits(c[k])^a.parity)&signBit)
		}
	}
}

// foldChecks folds one block's variable-to-check messages total−ctv
// into the check accumulators, overwriting ctv with them. A strict <
// keeps the first minimum in column order; min2 = min(min2, max(m,
// min1)) is the branchless form of the two-way update. A message is
// never −0 (a float sum is −0 only when every term is, and then
// total−ctv is +0), so its sign bit is exactly "vtc < 0".
//
//riflint:hotpath
func foldChecks(acc []checkAcc, ctv, total []float32, blk int32) {
	ctv = ctv[:len(acc)]
	total = total[:len(acc)]
	for k := range acc {
		vtc := total[k] - ctv[k]
		ctv[k] = vtc
		bits := math.Float32bits(vtc)
		m := bits &^ signBit
		a := &acc[k]
		min1, minBlk := a.min1, a.minBlk
		if m < min1 {
			minBlk = blk
		}
		a.min1, a.min2, a.minBlk = min(min1, m), min(a.min2, max(m, min1)), minBlk
		a.parity ^= bits
	}
}

func (d *MinSumDecoder) satisfied(cw Bits) bool {
	// Cheap full-syndrome check via the circulant structure, using the
	// decoder's workspace and bailing at the first unsatisfied block
	// row.
	return d.code.syndromeIsZero(cw, d.syn)
}

// BitFlipDecoder is a Gallager-style hard-decision bit-flipping
// decoder: cheap, lower-threshold than min-sum. It serves as the
// baseline decoder model and for cross-checking the min-sum decoder.
type BitFlipDecoder struct {
	code    *Code
	maxIter int

	// Per-decode scratch, reused across calls; not concurrency-safe.
	unsat []uint8
	syn   Bits
	ws    *synWS
}

// NewBitFlipDecoder builds a bit-flipping decoder (0 means
// DefaultMaxIterations).
func NewBitFlipDecoder(code *Code, maxIter int) *BitFlipDecoder {
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	return &BitFlipDecoder{
		code:    code,
		maxIter: maxIter,
		unsat:   make([]uint8, code.N()),
		syn:     NewBits(code.M()),
		ws:      newSynWS(code.T),
	}
}

// Decode attempts to correct the received word by flipping bits that
// participate in a majority of unsatisfied checks. The Result's Word
// is an independent copy.
func (d *BitFlipDecoder) Decode(received Bits) Result {
	checkVars, varChecks := d.code.adjacency()
	work := received.Clone()
	unsat := d.unsat
	for iter := 1; iter <= d.maxIter; iter++ {
		syn := d.syn
		d.code.syndromeInto(syn, work, d.ws)
		if syn.PopCount() == 0 {
			return Result{OK: true, Iterations: iter, Word: work}
		}
		for i := range unsat {
			unsat[i] = 0
		}
		for m := 0; m < d.code.M(); m++ {
			if !syn.Get(m) {
				continue
			}
			for _, v := range checkVars[m] {
				unsat[v]++
			}
		}
		flipped := false
		for v := 0; v < d.code.N(); v++ {
			deg := len(varChecks[v])
			if deg > 0 && int(unsat[v])*2 > deg {
				work.Flip(v)
				flipped = true
			}
		}
		if !flipped {
			// Stuck: flip the single worst bit to perturb, or give up.
			best, bestCount := -1, 0
			for v := 0; v < d.code.N(); v++ {
				if int(unsat[v]) > bestCount {
					best, bestCount = v, int(unsat[v])
				}
			}
			if best < 0 {
				break
			}
			work.Flip(best)
		}
	}
	if d.code.syndromeIsZero(work, d.ws) {
		return Result{OK: true, Iterations: d.maxIter, Word: work}
	}
	return Result{OK: false, Iterations: d.maxIter, Word: work}
}
