package ldpc

import (
	"math/rand/v2"
	"testing"
)

func TestMinSumDecodesCleanWordInOneIteration(t *testing.T) {
	cd := testCode()
	rng := rand.New(rand.NewPCG(1, 10))
	cw := cd.Encode(RandomBits(cd.K(), rng))
	dec := NewMinSumDecoder(cd, 0)
	res := dec.Decode(cw)
	if !res.OK || res.Iterations != 1 {
		t.Fatalf("clean decode: ok=%v iters=%d", res.OK, res.Iterations)
	}
	if !res.Word.Equal(cw) {
		t.Fatal("clean decode modified the codeword")
	}
}

func TestMinSumCorrectsFewErrors(t *testing.T) {
	cd := testCode()
	rng := rand.New(rand.NewPCG(2, 10))
	dec := NewMinSumDecoder(cd, 0)
	for trial := 0; trial < 20; trial++ {
		cw := cd.Encode(RandomBits(cd.K(), rng))
		bad := FlipExact(cw, 8, rng)
		res := dec.Decode(bad)
		if !res.OK {
			t.Fatalf("trial %d: failed to correct 8 errors in %d-bit codeword", trial, cd.N())
		}
		if !res.Word.Equal(cw) {
			t.Fatalf("trial %d: converged to a different codeword", trial)
		}
	}
}

func TestMinSumFailsAtHighRBER(t *testing.T) {
	cd := testCode()
	rng := rand.New(rand.NewPCG(3, 10))
	dec := NewMinSumDecoder(cd, 0)
	failures := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		cw := cd.Encode(RandomBits(cd.K(), rng))
		bad := FlipRandom(cw, 0.05, rng) // far beyond any plausible capability
		if res := dec.Decode(bad); !res.OK {
			failures++
			if res.Iterations != dec.MaxIterations() {
				t.Fatalf("failed decode used %d iterations, want max %d",
					res.Iterations, dec.MaxIterations())
			}
		}
	}
	if failures < trials-1 {
		t.Fatalf("only %d/%d decodes failed at RBER 0.05", failures, trials)
	}
}

func TestMinSumIterationsGrowWithRBER(t *testing.T) {
	cd := testCode()
	rng := rand.New(rand.NewPCG(4, 10))
	dec := NewMinSumDecoder(cd, 0)
	avgIters := func(rber float64) float64 {
		total, n := 0, 0
		for trial := 0; trial < 30; trial++ {
			cw := cd.Encode(RandomBits(cd.K(), rng))
			res := dec.Decode(FlipRandom(cw, rber, rng))
			total += res.Iterations
			n++
		}
		return float64(total) / float64(n)
	}
	low := avgIters(0.001)
	high := avgIters(0.006)
	if high <= low {
		t.Fatalf("avg iterations did not grow with RBER: %.2f @0.001 vs %.2f @0.006", low, high)
	}
}

func TestMinSumDeterministic(t *testing.T) {
	cd := testCode()
	rng := rand.New(rand.NewPCG(5, 10))
	cw := FlipExact(cd.Encode(RandomBits(cd.K(), rng)), 30, rng)
	d1 := NewMinSumDecoder(cd, 0)
	d2 := NewMinSumDecoder(cd, 0)
	r1 := d1.Decode(cw)
	r2 := d2.Decode(cw)
	if r1.OK != r2.OK || r1.Iterations != r2.Iterations || !r1.Word.Equal(r2.Word) {
		t.Fatal("decoder is not deterministic")
	}
}

func TestMinSumScratchReuse(t *testing.T) {
	// Back-to-back decodes on one decoder must not leak state.
	cd := testCode()
	rng := rand.New(rand.NewPCG(6, 10))
	dec := NewMinSumDecoder(cd, 0)
	cw := cd.Encode(RandomBits(cd.K(), rng))
	bad := FlipExact(cw, 10, rng)
	first := dec.Decode(bad)
	// A heavy failing decode in between.
	dec.Decode(FlipRandom(cd.Encode(RandomBits(cd.K(), rng)), 0.08, rng))
	again := dec.Decode(bad)
	if first.OK != again.OK || first.Iterations != again.Iterations {
		t.Fatal("decoder state leaked across Decode calls")
	}
}

func TestDecoderMaxIterDefault(t *testing.T) {
	cd := testCode()
	if NewMinSumDecoder(cd, 0).MaxIterations() != DefaultMaxIterations {
		t.Fatal("default max iterations not applied")
	}
	if NewMinSumDecoder(cd, 5).MaxIterations() != 5 {
		t.Fatal("explicit max iterations not applied")
	}
}
