package ldpc

import (
	"math/rand/v2"
	"testing"
)

// Steady-state decoding must not allocate: every buffer the decoder
// touches per codeword lives on the decoder. This pins the scratch
// reuse that keeps the code-level sweeps (Figs. 3/10/11/14) from
// allocating per sample, on every kernel set this CPU runs, at T=256
// and at the paper's T=1024, where the vector row kernel runs in
// groups of blocks.
func TestMinSumDecodeSteadyStateZeroAlloc(t *testing.T) {
	for _, T := range []int{256, PaperCirculant} {
		cd := NewCode(4, 36, T, 7)
		rng := rand.New(rand.NewPCG(1, 9))
		clean := cd.Encode(RandomBits(cd.K(), rng))
		noisy := FlipExact(clean, 12*T/256, rng)
		llrs := make([]float32, cd.N())
		for v := 0; v < cd.N(); v++ {
			if noisy.Get(v) {
				llrs[v] = -0.6
			} else {
				llrs[v] = 0.6
			}
		}
		for _, k := range kernelSets {
			dec := newMinSumDecoder(cd, 0, k)
			dec.Decode(noisy) // warm
			if allocs := testing.AllocsPerRun(20, func() { dec.Decode(noisy) }); allocs != 0 {
				t.Fatalf("T=%d, %s kernels: Decode allocates %.1f/op in steady state, want 0", T, k.name, allocs)
			}
			if allocs := testing.AllocsPerRun(20, func() { dec.DecodeSoft(llrs) }); allocs != 0 {
				t.Fatalf("T=%d, %s kernels: DecodeSoft allocates %.1f/op in steady state, want 0", T, k.name, allocs)
			}
		}
	}
}

// The syndromeIsZero fast path feeding the decoder's per-iteration
// check must also be allocation-free.
func TestSyndromeIsZeroZeroAlloc(t *testing.T) {
	cd := NewCode(4, 36, 256, 7)
	rng := rand.New(rand.NewPCG(2, 9))
	cw := cd.Encode(RandomBits(cd.K(), rng))
	ws := newSynWS(cd.T)
	if !cd.syndromeIsZero(cw, ws) {
		t.Fatal("clean codeword reported nonzero syndrome")
	}
	if allocs := testing.AllocsPerRun(20, func() { cd.syndromeIsZero(cw, ws) }); allocs != 0 {
		t.Fatalf("syndromeIsZero allocates %.1f/op, want 0", allocs)
	}
}
