package ldpc

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// Microbenchmarks for the code paths the RP module and the channel
// ECC model abstract: encode, decode, full and pruned syndrome
// weights, and the §V-B rearrangement.

func benchCodeAndWord(b *testing.B, t int, rber float64) (*Code, Bits) {
	b.Helper()
	cd := NewCode(4, 36, t, 7)
	rng := rand.New(rand.NewPCG(1, 1))
	cw := cd.Encode(RandomBits(cd.K(), rng))
	if rber > 0 {
		cw = FlipRandom(cw, rber, rng)
	}
	return cd, cw
}

func BenchmarkEncode(b *testing.B) {
	cd := NewCode(4, 36, 256, 7)
	rng := rand.New(rand.NewPCG(1, 1))
	data := RandomBits(cd.K(), rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cd.Encode(data)
	}
	b.SetBytes(int64(cd.K() / 8))
}

func BenchmarkEncodePaperScale(b *testing.B) {
	cd := NewPaperCode(7)
	rng := rand.New(rand.NewPCG(1, 1))
	data := RandomBits(cd.K(), rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cd.Encode(data)
	}
	b.SetBytes(int64(cd.K() / 8))
}

func BenchmarkSyndromeWeightFull(b *testing.B) {
	cd, cw := benchCodeAndWord(b, 256, 0.005)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cd.SyndromeWeight(cw)
	}
}

func BenchmarkSyndromeWeightPruned(b *testing.B) {
	// The §V-A2 pruning: must be ~R times cheaper than the full
	// computation.
	cd, cw := benchCodeAndWord(b, 256, 0.005)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cd.FirstRowSyndromeWeight(cw)
	}
}

func BenchmarkRearrangedPrunedWeight(b *testing.B) {
	// The on-die datapath form (plain XOR of segments, Fig. 16):
	// cheaper still — no rotations at read time.
	cd, cw := benchCodeAndWord(b, 256, 0.005)
	re := cd.Rearrange(cw)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cd.RearrangedPrunedWeight(re)
	}
}

func BenchmarkRearrange(b *testing.B) {
	cd, cw := benchCodeAndWord(b, 256, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cd.Rearrange(cw)
	}
}

// benchDecoders runs f once per kernel set as a sub-benchmark named
// after the set (/avx2, /go), on a fresh decoder; a set this CPU does
// not run is skipped.
func benchDecoders(b *testing.B, cd *Code, f func(b *testing.B, dec *MinSumDecoder)) {
	for _, name := range []string{"avx2", "go"} {
		b.Run(name, func(b *testing.B) {
			i := slices.IndexFunc(kernelSets, func(k *kernelSet) bool { return k.name == name })
			if i < 0 {
				b.Skipf("this CPU does not run the %s kernels", name)
			}
			dec := newMinSumDecoder(cd, 0, kernelSets[i])
			b.ResetTimer()
			f(b, dec)
		})
	}
}

func BenchmarkDecodeClean(b *testing.B) {
	cd, cw := benchCodeAndWord(b, 256, 0)
	benchDecoders(b, cd, func(b *testing.B, dec *MinSumDecoder) {
		for i := 0; i < b.N; i++ {
			dec.Decode(cw)
		}
	})
}

func BenchmarkDecodeModerate(b *testing.B) {
	cd, cw := benchCodeAndWord(b, 256, 0.004)
	benchDecoders(b, cd, func(b *testing.B, dec *MinSumDecoder) {
		for i := 0; i < b.N; i++ {
			dec.Decode(cw)
		}
	})
}

func BenchmarkDecodeFailing(b *testing.B) {
	// Uncorrectable input: the decoder burns all 20 iterations, the
	// case whose latency stalls the paper's channel ECC buffer.
	cd, cw := benchCodeAndWord(b, 256, 0.015)
	benchDecoders(b, cd, func(b *testing.B, dec *MinSumDecoder) {
		for i := 0; i < b.N; i++ {
			dec.Decode(cw)
		}
	})
}

func BenchmarkDecodeSoft(b *testing.B) {
	// Soft-read LLRs past the hard-decision capability: the last-resort
	// retry step's decode.
	cd := NewCode(4, 36, 256, 7)
	rng := rand.New(rand.NewPCG(1, 1))
	_, llrs := DefaultSoftChannel(0.011).Observe(cd.Encode(RandomBits(cd.K(), rng)), rng)
	benchDecoders(b, cd, func(b *testing.B, dec *MinSumDecoder) {
		for i := 0; i < b.N; i++ {
			dec.DecodeSoft(llrs)
		}
	})
}

func BenchmarkDecodePaperScale(b *testing.B) {
	// The paper's 4-KiB codeword (t=1024) at the capability RBER.
	cd := NewPaperCode(7)
	rng := rand.New(rand.NewPCG(1, 1))
	cw := FlipRandom(cd.Encode(RandomBits(cd.K(), rng)), 0.0085, rng)
	benchDecoders(b, cd, func(b *testing.B, dec *MinSumDecoder) {
		for i := 0; i < b.N; i++ {
			dec.Decode(cw)
		}
	})
}

func BenchmarkFlipRandomSparse(b *testing.B) {
	cd, cw := benchCodeAndWord(b, 256, 0)
	rng := rand.New(rand.NewPCG(2, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FlipRandom(cw, 0.0085, rng)
	}
	_ = cd
}
