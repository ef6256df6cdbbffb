package ldpc

import (
	"math"
	"math/rand/v2"
)

// RandomBits returns a uniformly random bit vector of length n.
func RandomBits(n int, rng *rand.Rand) Bits {
	b := NewBits(n)
	for i := range b.words {
		b.words[i] = rng.Uint64()
	}
	b.maskTail()
	return b
}

// FlipRandom returns a copy of cw with each bit independently flipped
// with probability rber (a binary symmetric channel).
func FlipRandom(cw Bits, rber float64, rng *rand.Rand) Bits {
	out := cw.Clone()
	if rber <= 0 {
		return out
	}
	// For small rber, drawing a geometric gap between errors is far
	// faster than testing every bit.
	n := out.Len()
	if rber < 0.05 {
		i := nextErrorGap(rber, rng)
		for i < n {
			out.Flip(i)
			i += 1 + nextErrorGap(rber, rng)
		}
		return out
	}
	for i := 0; i < n; i++ {
		if rng.Float64() < rber {
			out.Flip(i)
		}
	}
	return out
}

// FlipExact returns a copy of cw with exactly k distinct random bits
// flipped, giving a page with a precisely controlled raw bit error
// count (how the paper builds its 1e5 test pages per RBER point).
func FlipExact(cw Bits, k int, rng *rand.Rand) Bits {
	out := cw.Clone()
	n := out.Len()
	if k <= 0 {
		return out
	}
	if k >= n {
		for i := 0; i < n; i++ {
			out.Flip(i)
		}
		return out
	}
	// Floyd's algorithm for a k-subset of [0, n). A bit is in the
	// subset iff it is already flipped, so out and cw are the
	// membership test.
	for j := n - k; j < n; j++ {
		v := rng.IntN(j + 1)
		if out.Get(v) != cw.Get(v) {
			v = j
		}
		out.Flip(v)
	}
	return out
}

// nextErrorGap draws the number of error-free bits before the next
// error on a BSC with crossover p (a geometric variate).
func nextErrorGap(p float64, rng *rand.Rand) int {
	// Inverse-CDF sampling: gap = floor(ln(U)/ln(1-p)).
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	g := int(math.Log(u) / math.Log(1-p))
	if g < 0 {
		g = 0
	}
	return g
}
