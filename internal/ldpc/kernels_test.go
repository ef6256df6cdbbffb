package ldpc

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// kernelValues are the floats the kernel tests draw from half the
// time: ±0, subnormals, exact magnitude ties, MaxFloat32 and ±Inf
// (whose differences make NaN messages).
var kernelValues = []float32{
	0, float32(math.Copysign(0, -1)), 1, -1, 0.75, -0.75, 3, -3,
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-39, -1e-39,
	math.MaxFloat32, -math.MaxFloat32, float32(math.Inf(1)), float32(math.Inf(-1)),
}

func kernelFloat(rng *rand.Rand) float32 {
	if rng.IntN(2) == 0 {
		return kernelValues[rng.IntN(len(kernelValues))]
	}
	for {
		if x := math.Float32frombits(rng.Uint32()); x == x {
			return x
		}
	}
}

func kernelFloats(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = kernelFloat(rng)
	}
	return s
}

// kernelRow is the state one block row's kernels touch: the
// accumulators and, per block, its messages and its beliefs, each
// inside a padded buffer so a write outside the range shows.
type kernelRow struct {
	acc         checkAccs
	ctv, belief [][]float32
}

func (r kernelRow) clone() kernelRow {
	c := kernelRow{acc: newCheckAccs(len(r.acc.min1))}
	copy(c.acc.min1, r.acc.min1)
	copy(c.acc.min2, r.acc.min2)
	copy(c.acc.minBlk, r.acc.minBlk)
	copy(c.acc.parity, r.acc.parity)
	for b := range r.ctv {
		c.ctv = append(c.ctv, slices.Clone(r.ctv[b]))
		c.belief = append(c.belief, slices.Clone(r.belief[b]))
	}
	return c
}

// diff names the first word in which two rows differ, or "".
func (r kernelRow) diff(o kernelRow) string {
	for _, f := range []struct {
		name string
		a, b []uint32
	}{
		{"min1", r.acc.min1, o.acc.min1}, {"min2", r.acc.min2, o.acc.min2},
		{"minBlk", r.acc.minBlk, o.acc.minBlk}, {"parity", r.acc.parity, o.acc.parity},
	} {
		if i := firstDiff(f.a, f.b); i >= 0 {
			return fmt.Sprintf("%s differs at check %d", f.name, i)
		}
	}
	for b := range r.ctv {
		if i := firstDiff(floatBits(r.ctv[b]), floatBits(o.ctv[b])); i >= 0 {
			return fmt.Sprintf("block %d message buffer differs at %d", b, i)
		}
		if i := firstDiff(floatBits(r.belief[b]), floatBits(o.belief[b])); i >= 0 {
			return fmt.Sprintf("block %d belief buffer differs at %d", b, i)
		}
	}
	return ""
}

func floatBits(s []float32) []uint32 {
	out := make([]uint32, len(s))
	for i, x := range s {
		out[i] = math.Float32bits(x)
	}
	return out
}

func firstDiff(a, b []uint32) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestKernelsMatchPortable runs every vector kernel set this CPU has
// against the portable set on the same state and requires it equal
// bit for bit after each reset, fold, scale and write-back: for every
// range length 0…T at the offsets a block's two ranges take (lo = 0
// and lo = T−n) and one more, with each range's messages and beliefs
// at unaligned addresses, and with ±0, subnormals, exact magnitude
// ties, MaxFloat32 and ±Inf in the data.
func TestKernelsMatchPortable(t *testing.T) {
	if len(kernelSets) == 1 {
		t.Skip("this CPU runs only the portable kernels")
	}
	for _, k := range kernelSets {
		if k == &goKernels {
			continue
		}
		t.Run(k.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(5, 38))
			for _, T := range []int{100, 64} {
				for n := 0; n <= T; n++ {
					for _, lo := range []int{0, T - n, rng.IntN(T - n + 1)} {
						if diff := kernelCase(k, rng, T, lo, n); diff != "" {
							t.Fatalf("T=%d checks [%d, %d): %s", T, lo, lo+n, diff)
						}
					}
				}
			}
		})
	}
}

// kernelCase runs one block row of three blocks on checks [lo, lo+n)
// through k and the portable set.
func kernelCase(k *kernelSet, rng *rand.Rand, T, lo, n int) string {
	const blocks = 3
	var want kernelRow
	want.acc = newCheckAccs(T)
	for i := range T {
		// Accumulator magnitudes come from the same values, so folds
		// meet exact ties.
		want.acc.min1[i] = math.Float32bits(kernelFloat(rng)) &^ signBit
		want.acc.min2[i] = math.Float32bits(kernelFloat(rng)) &^ signBit
		want.acc.minBlk[i] = uint32(rng.IntN(blocks+1)) - 1
		want.acc.parity[i] = rng.Uint32()
	}
	for range blocks {
		// Pad before and after, unaligning the range by 1–7 floats.
		want.ctv = append(want.ctv, kernelFloats(rng, n+16))
		want.belief = append(want.belief, kernelFloats(rng, n+16))
	}
	off := 1 + rng.IntN(7)
	got := want.clone()
	step := func(what string, f func(s *kernelSet, r kernelRow)) string {
		f(k, got)
		f(&goKernels, want)
		if d := got.diff(want); d != "" {
			return "after " + what + ": " + d
		}
		return ""
	}
	if rng.IntN(2) == 0 {
		if d := step("reset", func(s *kernelSet, r kernelRow) { s.reset(&r.acc) }); d != "" {
			return d
		}
	}
	for b := range blocks {
		if d := step(fmt.Sprint("fold of block ", b), func(s *kernelSet, r kernelRow) {
			s.fold(&r.acc, lo, r.ctv[b][off:off+n], r.belief[b][off:off+n], int32(b))
		}); d != "" {
			return d
		}
	}
	if d := step("scale", func(s *kernelSet, r kernelRow) { s.scale(&r.acc, 0.75) }); d != "" {
		return d
	}
	for b := range blocks {
		if d := step(fmt.Sprint("write-back of block ", b), func(s *kernelSet, r kernelRow) {
			s.writeBack(&r.acc, lo, r.ctv[b][off:off+n], r.belief[b][off:off+n], int32(b))
		}); d != "" {
			return d
		}
	}
	return ""
}

// TestPackSigns checks every kernel set's hard decision for every
// length up to four words and a bit, from unaligned beliefs, −0 among
// them: bit i is set iff belief i is below −0, and every bit past the
// last belief is clear.
func TestPackSigns(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 38))
	for _, k := range kernelSets {
		for n := 0; n <= 4*64+1; n++ {
			off := rng.IntN(8)
			total := kernelFloats(rng, n+off)[off:]
			got, want := make([]uint64, (n+63)/64), make([]uint64, (n+63)/64)
			for i := range got {
				got[i] = rng.Uint64()
			}
			k.pack(got, total)
			for i, x := range total {
				if math.Float32bits(x) > signBit {
					want[i/64] |= 1 << (i % 64)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s pack of %d beliefs = %x, want %x", k.name, n, got, want)
			}
		}
	}
}
