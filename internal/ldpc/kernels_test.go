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

// padded is n floats from kernelFloat inside a buffer of kernelFloats
// 16 longer, starting 1–7 floats in (so unaligned): a write outside the
// n shows.
type padded struct {
	buf    []float32
	off, n int
}

func newPadded(rng *rand.Rand, n int) padded {
	return padded{buf: kernelFloats(rng, n+16), off: 1 + rng.IntN(7), n: n}
}

func (p padded) s() []float32 { return p.buf[p.off : p.off+p.n] }

func (p padded) clone() padded { p.buf = slices.Clone(p.buf); return p }

// sameBits names the first float in which two buffers differ, or "".
func sameBits(what string, got, want padded) string {
	if i := firstDiff(floatBits(got.buf), floatBits(want.buf)); i >= 0 {
		return fmt.Sprintf("%s buffer differs at %d (range from %d): %v, portable %v", what, i, got.off, got.buf[i], want.buf[i])
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
// against the portable set on the same input and requires the same
// bits: the row kernel's messages and next beliefs on one block row
// for every shift 0…T−1 of its first block, so every split of the
// wrapping chunk occurs, at T = 8, 64 and 256, and the entry kernels'
// LLRs and beliefs for every length up to four words and a bit. Every
// slice starts at an unaligned address inside a padded buffer, so a
// write outside it shows, and the data hold ±0, subnormals, exact
// magnitude ties, MaxFloat32 and ±Inf.
func TestKernelsMatchPortable(t *testing.T) {
	if len(kernelSets) == 1 {
		t.Skip("this CPU runs only the portable kernels")
	}
	for _, k := range kernelSets {
		if k == &goKernels {
			continue
		}
		t.Run(k.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(5, 42))
			for _, T := range []int{8, 64, 256} {
				for shift := range T {
					if diff := rowCase(k.row, rng, T, shift, 1+rng.IntN(4)); diff != "" {
						t.Fatalf("T=%d, first block's shift %d: %s", T, shift, diff)
					}
				}
			}
			for n := 0; n <= 4*64+1; n++ {
				if diff := entryCase(k, rng, n); diff != "" {
					t.Fatalf("%d beliefs: %s", n, diff)
				}
			}
		})
	}
}

// rowCase runs one block row of nb blocks through row and the portable
// kernel, the first block at the given shift and the others at random
// ones, in random block columns of a C = nb+2 wide code.
func rowCase(row func(a *checkAccs, blocks []circulant, ctv, total, next []float32, alpha float32), rng *rand.Rand, T, shift, nb int) string {
	cols := rng.Perm(nb + 2)[:nb]
	slices.Sort(cols)
	blocks := make([]circulant, nb)
	for b := range blocks {
		blocks[b] = circulant{col: cols[b] * T, shift: rng.IntN(T)}
	}
	blocks[0].shift = shift
	ctv, total, next := newPadded(rng, nb*T), newPadded(rng, (nb+2)*T), newPadded(rng, (nb+2)*T)
	wantCtv, wantTotal, wantNext := ctv.clone(), total.clone(), next.clone()
	goAcc, acc := newCheckAccs(T), newCheckAccs(T)
	goKernels.row(&goAcc, blocks, wantCtv.s(), wantTotal.s(), wantNext.s(), 0.75)
	row(&acc, blocks, ctv.s(), total.s(), next.s(), 0.75)
	for _, c := range []struct {
		what      string
		got, want padded
	}{{"message", ctv, wantCtv}, {"belief", total, wantTotal}, {"next belief", next, wantNext}} {
		if diff := sameBits(c.what, c.got, c.want); diff != "" {
			return fmt.Sprintf("blocks %v: %s", blocks, diff)
		}
	}
	return ""
}

// entryCase runs the hard entry on n random bits and the soft entry on
// n LLRs through k and the portable set.
func entryCase(k *kernelSet, rng *rand.Rand, n int) string {
	words := make([]uint64, (n+63)/64)
	for i := range words {
		words[i] = rng.Uint64()
	}
	llrs, total := newPadded(rng, n), newPadded(rng, n)
	wantLLRs, wantTotal := llrs.clone(), total.clone()
	goKernels.expand(wantLLRs.s(), wantTotal.s(), words)
	k.expand(llrs.s(), total.s(), words)
	if diff := sameBits("expand LLR", llrs, wantLLRs); diff != "" {
		return diff
	}
	if diff := sameBits("expand belief", total, wantTotal); diff != "" {
		return diff
	}
	soft := newPadded(rng, n)
	goKernels.seed(wantTotal.s(), soft.s())
	k.seed(total.s(), soft.s())
	return sameBits("seed belief", total, wantTotal)
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
