package ldpc

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// refMinSum is the edge-list flooding min-sum decoder MinSumDecoder
// replaced: messages live on a flattened Tanner graph (edges grouped by
// check, each variable's edges in block-row order) and the check update
// branches per edge. It is the oracle the circulant-major kernel must
// match bit for bit.
type refMinSum struct {
	code    *Code
	maxIter int
	alpha   float32

	edgeVar  []int32
	checkOff []int32
	varEdges [][]int32

	ctv   []float32
	total []float32
}

func newRefMinSum(code *Code, maxIter int) *refMinSum {
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	checkVars, _ := code.adjacency()
	var edgeVar []int32
	checkOff := make([]int32, len(checkVars)+1)
	for m, vars := range checkVars {
		checkOff[m] = int32(len(edgeVar))
		edgeVar = append(edgeVar, vars...)
	}
	checkOff[len(checkVars)] = int32(len(edgeVar))
	varEdges := make([][]int32, code.N())
	for e, v := range edgeVar {
		varEdges[v] = append(varEdges[v], int32(e))
	}
	return &refMinSum{
		code:     code,
		maxIter:  maxIter,
		alpha:    0.75,
		edgeVar:  edgeVar,
		checkOff: checkOff,
		varEdges: varEdges,
		ctv:      make([]float32, len(edgeVar)),
		total:    make([]float32, code.N()),
	}
}

func (d *refMinSum) decode(received Bits) Result {
	llrs := make([]float32, d.code.N())
	for v := range llrs {
		if received.Get(v) {
			llrs[v] = -1
		} else {
			llrs[v] = 1
		}
	}
	return d.decodeSoft(llrs)
}

func (d *refMinSum) decodeSoft(llrs []float32) Result {
	n := d.code.N()
	for i := range d.ctv {
		d.ctv[i] = 0
	}
	work := NewBits(n)
	for iter := 1; iter <= d.maxIter; iter++ {
		for v := 0; v < n; v++ {
			t := llrs[v]
			for _, e := range d.varEdges[v] {
				t += d.ctv[e]
			}
			d.total[v] = t
			work.Set(v, t < 0)
		}
		if d.code.SyndromeWeight(work) == 0 {
			return Result{OK: true, Iterations: iter, Word: work}
		}
		for m := 0; m < d.code.M(); m++ {
			lo, hi := d.checkOff[m], d.checkOff[m+1]
			min1 := float32(math.MaxFloat32)
			min2 := float32(math.MaxFloat32)
			minIdx := int32(-1)
			signProd := float32(1)
			for e := lo; e < hi; e++ {
				vtc := d.total[d.edgeVar[e]] - d.ctv[e]
				if vtc < 0 {
					signProd = -signProd
				}
				mag := vtc
				if mag < 0 {
					mag = -mag
				}
				if mag < min1 {
					min2 = min1
					min1 = mag
					minIdx = e
				} else if mag < min2 {
					min2 = mag
				}
			}
			for e := lo; e < hi; e++ {
				vtc := d.total[d.edgeVar[e]] - d.ctv[e]
				sgn := signProd
				if vtc < 0 {
					sgn = -sgn
				}
				mag := min1
				if e == minIdx {
					mag = min2
				}
				d.ctv[e] = d.alpha * sgn * mag
			}
		}
	}
	for v := 0; v < n; v++ {
		t := llrs[v]
		for _, e := range d.varEdges[v] {
			t += d.ctv[e]
		}
		d.total[v] = t
		work.Set(v, t < 0)
	}
	return Result{OK: d.code.SyndromeWeight(work) == 0, Iterations: d.maxIter, Word: work}
}

// sameDecode reports how the decoder's last result and state differ
// from the oracle's, or "". Beyond the Result, every final belief and
// every check-to-variable message must match bit for bit: a change in
// summation order moves values long before it flips a decision.
func sameDecode(dec *MinSumDecoder, got Result, ref *refMinSum, want Result) string {
	switch {
	case got.OK != want.OK:
		return fmt.Sprintf("OK %v, oracle %v", got.OK, want.OK)
	case got.Iterations != want.Iterations:
		return fmt.Sprintf("Iterations %d, oracle %d", got.Iterations, want.Iterations)
	case !got.Word.Equal(want.Word):
		return fmt.Sprintf("Word differs from the oracle's in %d bits", got.Word.HammingDistance(want.Word))
	}
	for v, x := range ref.total {
		if math.Float32bits(dec.total[v]) != math.Float32bits(x) {
			return fmt.Sprintf("belief of bit %d is %v, oracle %v", v, dec.total[v], x)
		}
	}
	// Check m = bi·T+k holds its edges in block-column order, which is
	// the order of block row bi's blocks.
	T := dec.code.T
	for m := 0; m < dec.code.M(); m++ {
		bi, k := m/T, m%T
		for p, e := 0, ref.checkOff[m]; e < ref.checkOff[m+1]; p, e = p+1, e+1 {
			got := dec.ctv[(dec.rowOff[bi]+p)*T+k]
			if math.Float32bits(got) != math.Float32bits(ref.ctv[e]) {
				return fmt.Sprintf("message %d of check %d is %v, oracle %v", p, m, got, ref.ctv[e])
			}
		}
	}
	return ""
}

// TestMinSumMatchesReference pins the circulant-major kernel to the
// edge-list oracle: hard and soft decodes agree exactly in OK,
// Iterations, Word, beliefs and messages, on circulants that are and
// are not a multiple of the word size, from clean words to far past the
// capability, and at the paper's t=1024 either side of the capability.
// Every decode runs through each kernel set this CPU runs that fits the
// circulant size.
func TestMinSumMatchesReference(t *testing.T) {
	rbers := []float64{0, 0.002, 0.006, 0.008, 0.0085, 0.0095, 0.011, 0.02, 0.05}
	samples := 2
	if testing.Short() {
		samples = 1
	}
	for _, c := range []struct {
		T       int
		rbers   []float64
		samples int
	}{{64, rbers, samples}, {100, rbers, samples}, {256, rbers, samples}, {PaperCirculant, []float64{0.0085, 0.011}, 1}} {
		T := c.T
		cd := NewCode(4, 36, T, 7)
		var decs []*MinSumDecoder
		for _, k := range kernelSets {
			if k.fits(T) {
				decs = append(decs, newMinSumDecoder(cd, 0, k))
			}
		}
		// One oracle per input kind, so each keeps its final state.
		refHard, refSoft := newRefMinSum(cd, 0), newRefMinSum(cd, 0)
		rng := rand.New(rand.NewPCG(uint64(T), 11))
		for _, rber := range c.rbers {
			for s := 0; s < c.samples; s++ {
				cw := cd.Encode(RandomBits(cd.K(), rng))
				hard, llrs := DefaultSoftChannel(rber).Observe(cw, rng)
				wantHard, wantSoft := refHard.decode(hard), refSoft.decodeSoft(llrs)
				for _, dec := range decs {
					if diff := sameDecode(dec, dec.Decode(hard), refHard, wantHard); diff != "" {
						t.Fatalf("T=%d RBER %v sample %d, %s kernels: Decode %s", T, rber, s, dec.kern.name, diff)
					}
					if diff := sameDecode(dec, dec.DecodeSoft(llrs), refSoft, wantSoft); diff != "" {
						t.Fatalf("T=%d RBER %v sample %d, %s kernels: DecodeSoft %s", T, rber, s, dec.kern.name, diff)
					}
				}
			}
		}
	}
}

// FuzzMinSumDecodeSoft drives DecodeSoft on a T=64 code with arbitrary
// finite LLRs (±0, subnormals and magnitudes up to 1e30 included) and
// requires the oracle's result, beliefs and messages exactly, from each
// kernel set this CPU runs (each fits T=64). The input is tiled over the
// codeword four bytes per LLR; a non-finite or oversized float is
// folded into range, so every input exercises the decoder's domain.
func FuzzMinSumDecodeSoft(f *testing.F) {
	cd := NewCode(4, 36, 64, 7)
	var decs []*MinSumDecoder
	for _, k := range kernelSets {
		decs = append(decs, newMinSumDecoder(cd, 0, k))
	}
	ref := newRefMinSum(cd, 0)
	word := func(vals ...float32) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		return b
	}
	f.Add(word(1))
	f.Add(word(-1, 1, 1, 1, 1, 1, 1))
	f.Add(word(0, float32(math.Copysign(0, -1)), 4, -0.6))
	f.Add(word(math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-39, 0.6, -4))
	f.Add(word(1e30, -1e30, 1, -1e-30, 3))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 4 {
			return
		}
		llrs := make([]float32, cd.N())
		nv := len(in) / 4
		for v := range llrs {
			x := math.Float32frombits(binary.LittleEndian.Uint32(in[4*(v%nv):]))
			if x != x || math.Abs(float64(x)) > 1e30 {
				// Fold NaN, ±Inf and huge magnitudes into [-1e30, 1e30],
				// keeping the sign.
				x = float32(math.Copysign(float64(math.Float32bits(x)%1_000_003)*1e24, float64(x)))
			}
			llrs[v] = x
		}
		want := ref.decodeSoft(llrs)
		for _, dec := range decs {
			if diff := sameDecode(dec, dec.DecodeSoft(llrs), ref, want); diff != "" {
				t.Fatalf("%s kernels: DecodeSoft %s", dec.kern.name, diff)
			}
		}
	})
}
