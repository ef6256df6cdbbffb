package ldpc

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestRearrangeRestoreRoundTrip(t *testing.T) {
	cd := testCode()
	rng := rand.New(rand.NewPCG(1, 20))
	for trial := 0; trial < 10; trial++ {
		cw := FlipRandom(cd.Encode(RandomBits(cd.K(), rng)), 0.01, rng)
		if !cd.Restore(cd.Rearrange(cw)).Equal(cw) {
			t.Fatalf("trial %d: Restore(Rearrange(cw)) != cw", trial)
		}
	}
}

func TestRearrangePreservesWeight(t *testing.T) {
	cd := testCode()
	rng := rand.New(rand.NewPCG(2, 20))
	cw := FlipRandom(cd.Encode(RandomBits(cd.K(), rng)), 0.02, rng)
	if cd.Rearrange(cw).PopCount() != cw.PopCount() {
		t.Fatal("rearrangement changed the Hamming weight")
	}
}

func TestRearrangedPrunedWeightEqualsFirstRow(t *testing.T) {
	// The hardware XOR-of-segments on the rearranged layout must equal
	// the first-block-row syndrome weight on the original layout —
	// this is the entire point of Fig. 15.
	cd := testCode()
	rng := rand.New(rand.NewPCG(3, 20))
	for _, rber := range []float64{0, 0.001, 0.005, 0.02} {
		cw := FlipRandom(cd.Encode(RandomBits(cd.K(), rng)), rber, rng)
		want := cd.FirstRowSyndromeWeight(cw)
		got := cd.RearrangedPrunedWeight(cd.Rearrange(cw))
		if got != want {
			t.Fatalf("rber=%v: rearranged weight %d != first-row weight %d", rber, got, want)
		}
	}
}

func TestRearrangeValidCodewordHasZeroPrunedWeight(t *testing.T) {
	cd := testCode()
	rng := rand.New(rand.NewPCG(4, 20))
	cw := cd.Encode(RandomBits(cd.K(), rng))
	if w := cd.RearrangedPrunedWeight(cd.Rearrange(cw)); w != 0 {
		t.Fatalf("valid codeword pruned weight = %d, want 0", w)
	}
}

func TestRearrangeProperty_RoundTrip(t *testing.T) {
	cd := NewCode(4, 12, 32, 17)
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 21))
		cw := RandomBits(cd.N(), rng) // arbitrary word, not necessarily valid
		return cd.Restore(cd.Rearrange(cw)).Equal(cw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestChannelFlipExactCount(t *testing.T) {
	cd := testCode()
	rng := rand.New(rand.NewPCG(5, 20))
	cw := cd.Encode(RandomBits(cd.K(), rng))
	for _, k := range []int{0, 1, 17, 100} {
		bad := FlipExact(cw, k, rng)
		if d := bad.HammingDistance(cw); d != k {
			t.Fatalf("FlipExact(%d) flipped %d bits", k, d)
		}
	}
}

func TestChannelFlipExactAllBits(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 20))
	b := RandomBits(100, rng)
	inv := FlipExact(b, 100, rng)
	if d := inv.HammingDistance(b); d != 100 {
		t.Fatalf("FlipExact(n) flipped %d bits, want all", d)
	}
}

// flipExactMap is FlipExact as it was written first, with Floyd's
// chosen set in a map: the oracle the map-free version must match.
func flipExactMap(cw Bits, k int, rng *rand.Rand) Bits {
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
	chosen := make(map[int]struct{}, k)
	for j := n - k; j < n; j++ {
		v := rng.IntN(j + 1)
		if _, dup := chosen[v]; dup {
			v = j
		}
		chosen[v] = struct{}{}
		out.Flip(v)
	}
	return out
}

// TestChannelFlipExactMatchesMap requires FlipExact to flip the same
// bits as the map version and leave its RNG in the same state, over
// random lengths, counts (0, 1, n−1, n and past n included) and seeds.
func TestChannelFlipExactMatchesMap(t *testing.T) {
	pick := rand.New(rand.NewPCG(11, 20))
	for trial := 0; trial < 300; trial++ {
		n := 1 + pick.IntN(300)
		k := pick.IntN(n + 2)
		switch trial % 5 {
		case 0:
			k = 0
		case 1:
			k = n - 1
		case 2:
			k = n + pick.IntN(3)
		}
		cw := RandomBits(n, pick)
		seed := pick.Uint64()
		got, want := rand.New(rand.NewPCG(seed, 1)), rand.New(rand.NewPCG(seed, 1))
		if g, w := FlipExact(cw, k, got), flipExactMap(cw, k, want); !g.Equal(w) {
			t.Fatalf("n=%d k=%d seed %d: flipped bits differ from the map version's", n, k, seed)
		}
		if got.Uint64() != want.Uint64() {
			t.Fatalf("n=%d k=%d seed %d: RNG draws differ from the map version's", n, k, seed)
		}
	}
}

func TestChannelFlipRandomRate(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 20))
	b := NewBits(200000)
	const p = 0.004
	bad := FlipRandom(b, p, rng)
	got := float64(bad.PopCount()) / 200000
	if got < p*0.7 || got > p*1.3 {
		t.Fatalf("FlipRandom rate = %v, want ~%v", got, p)
	}
}

func TestChannelFlipRandomDensePath(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 20))
	b := NewBits(50000)
	const p = 0.2 // exercises the non-geometric branch
	bad := FlipRandom(b, p, rng)
	got := float64(bad.PopCount()) / 50000
	if got < p*0.9 || got > p*1.1 {
		t.Fatalf("dense FlipRandom rate = %v, want ~%v", got, p)
	}
}

func TestChannelZeroRate(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 20))
	b := RandomBits(1000, rng)
	if !FlipRandom(b, 0, rng).Equal(b) {
		t.Fatal("FlipRandom(0) modified the word")
	}
	if !FlipExact(b, 0, rng).Equal(b) {
		t.Fatal("FlipExact(0) modified the word")
	}
}
