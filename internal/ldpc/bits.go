// Package ldpc implements the quasi-cyclic low-density parity-check
// (QC-LDPC) code machinery the RiF paper builds on: the circulant
// parity-check matrix, a systematic encoder, iterative decoders,
// syndrome-weight computation, the first-block-row syndrome pruning of
// §V-A2, and the hardware-friendly codeword rearrangement of §V-B
// (Fig. 15).
package ldpc

import (
	"fmt"
	"math/bits"
)

// Bits is a fixed-length bit vector packed into 64-bit words. Bit i of
// the vector is bit (i%64) of word i/64. The tail bits of the last
// word beyond the length are kept zero as an invariant.
type Bits struct {
	n     int
	words []uint64
}

// NewBits returns an all-zero bit vector of length n.
func NewBits(n int) Bits {
	if n < 0 {
		panic("ldpc: negative bit length")
	}
	return Bits{n: n, words: make([]uint64, (n+63)/64)}
}

// Len reports the number of bits in the vector.
func (b Bits) Len() int { return b.n }

// Get reports bit i.
func (b Bits) Get(i int) bool {
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set assigns bit i.
func (b Bits) Set(i int, v bool) {
	if v {
		b.words[i>>6] |= 1 << (uint(i) & 63)
	} else {
		b.words[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// Flip inverts bit i.
func (b Bits) Flip(i int) {
	b.words[i>>6] ^= 1 << (uint(i) & 63)
}

// Clone returns an independent copy.
func (b Bits) Clone() Bits {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return Bits{n: b.n, words: w}
}

// Zero clears every bit.
func (b Bits) Zero() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// XorInPlace sets b ^= other. The lengths must match.
func (b Bits) XorInPlace(other Bits) {
	if b.n != other.n {
		panic(fmt.Sprintf("ldpc: Xor length mismatch %d != %d", b.n, other.n))
	}
	for i := range b.words {
		b.words[i] ^= other.words[i]
	}
}

// PopCount reports the number of set bits.
func (b Bits) PopCount() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Equal reports whether two vectors have identical length and content.
func (b Bits) Equal(other Bits) bool {
	if b.n != other.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != other.words[i] {
			return false
		}
	}
	return true
}

// HammingDistance reports the number of positions at which b and other
// differ. The lengths must match.
func (b Bits) HammingDistance(other Bits) int {
	if b.n != other.n {
		panic("ldpc: HammingDistance length mismatch")
	}
	d := 0
	for i := range b.words {
		d += bits.OnesCount64(b.words[i] ^ other.words[i])
	}
	return d
}

// maskTail zeroes any bits beyond the logical length, restoring the
// packing invariant after whole-word operations.
func (b Bits) maskTail() {
	if rem := uint(b.n) & 63; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << rem) - 1
	}
}

// Segment copies bits [off, off+t) into dst (a t-bit vector).
func (b Bits) Segment(dst Bits, off, t int) {
	if off+t > b.n {
		panic("ldpc: segment out of range")
	}
	extractBits(dst.words, b.words, off, t)
	dst.maskTail()
}

// SetSegment writes the t-bit vector src into bits [off, off+t).
func (b Bits) SetSegment(src Bits, off, t int) {
	if off+t > b.n {
		panic("ldpc: segment out of range")
	}
	depositBits(b.words, src.words, off, t)
	b.maskTail()
}

// extractBits copies nbits starting at bit offset off of src into dst
// starting at bit 0.
func extractBits(dst, src []uint64, off, nbits int) {
	word := off >> 6
	shift := uint(off) & 63
	nWords := (nbits + 63) / 64
	for i := 0; i < nWords; i++ {
		w := src[word+i] >> shift
		if shift != 0 && word+i+1 < len(src) {
			w |= src[word+i+1] << (64 - shift)
		}
		dst[i] = w
	}
	if rem := uint(nbits) & 63; rem != 0 {
		dst[nWords-1] &= (1 << rem) - 1
	}
	for i := nWords; i < len(dst); i++ {
		dst[i] = 0
	}
}

// depositBits writes nbits from src (starting at bit 0) into dst
// starting at bit offset off.
func depositBits(dst, src []uint64, off, nbits int) {
	// Simple, correct bit-at-a-time fallback is too slow for hot paths;
	// do word-wise read-modify-write.
	word := off >> 6
	shift := uint(off) & 63
	remaining := nbits
	srcIdx := 0
	for remaining > 0 {
		take := 64
		if remaining < take {
			take = remaining
		}
		chunk := src[srcIdx]
		if take < 64 {
			chunk &= (1 << uint(take)) - 1
		}
		// Clear destination bits then OR the chunk in.
		loMask := uint64(0)
		if take == 64 {
			loMask = ^uint64(0) << shift
		} else {
			loMask = (((uint64(1) << uint(take)) - 1) << shift)
		}
		dst[word] = (dst[word] &^ loMask) | (chunk << shift)
		if shift != 0 {
			spill := take - int(64-shift)
			if spill > 0 {
				hiMask := (uint64(1) << uint(spill)) - 1
				dst[word+1] = (dst[word+1] &^ hiMask) | (chunk >> (64 - shift))
			}
		}
		remaining -= take
		srcIdx++
		word++
	}
}

// RotL cyclically rotates a t-bit vector left by k positions, in the
// QC-LDPC sense: output bit i = input bit (i+k) mod t. "Left" matches
// the paper's segment rotation that turns Q(C) into the identity.
func (b Bits) RotL(k int) Bits {
	t := b.n
	if t == 0 {
		return b.Clone()
	}
	k = ((k % t) + t) % t
	out := NewBits(t)
	if k == 0 {
		copy(out.words, b.words)
		return out
	}
	// out[i] = in[(i+k) mod t]: the first t-k output bits come from
	// in[k..t), the rest from in[0..k).
	extractBits(out.words, b.words, k, t-k)
	tmp := NewBits(k)
	extractBits(tmp.words, b.words, 0, k)
	depositBits(out.words, tmp.words, t-k, k)
	out.maskTail()
	return out
}

// xorRotatedInto computes acc ^= rotl(seg, k) for t-bit vectors
// without allocating. scratch and tmp must be t-bit vectors used as
// workspace; callers allocate them once and reuse across every block
// of a syndrome or encode pass.
func xorRotatedInto(acc, seg, scratch, tmp Bits, k int) {
	t := seg.n
	k = ((k % t) + t) % t
	if k == 0 {
		acc.XorInPlace(seg)
		return
	}
	scratch.Zero()
	extractBits(scratch.words, seg.words, k, t-k)
	extractBits(tmp.words[:(k+63)/64], seg.words, 0, k)
	depositBits(scratch.words, tmp.words, t-k, k)
	scratch.maskTail()
	acc.XorInPlace(scratch)
}
