package core

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"repro/internal/ldpc"
	"repro/internal/nand"
	"repro/internal/odear"
)

// CodeParams sizes the QC-LDPC used by the code-level studies. The
// default keeps the paper's 4x36 block shape with a reduced circulant
// so sweeps are fast; set Circulant to ldpc.PaperCirculant (1024) for
// the full 4-KiB codeword. Seed draws the code's circulant shifts; the
// codeword streams are seeded by RunParams.Seed.
type CodeParams struct {
	BlockRows int
	BlockCols int
	Circulant int
	Seed      uint64
}

// DefaultCodeParams returns the fast-sweep configuration.
func DefaultCodeParams() CodeParams {
	return CodeParams{
		BlockRows: ldpc.PaperBlockRows,
		BlockCols: ldpc.PaperBlockCols,
		Circulant: 256,
		Seed:      7,
	}
}

// Build constructs the code.
func (p CodeParams) Build() *ldpc.Code {
	return ldpc.NewCode(p.BlockRows, p.BlockCols, p.Circulant, p.Seed)
}

// The RBER sweeps of the code-level figures.
var (
	fig3RBERs     = []float64{0.004, 0.005, 0.006, 0.007, 0.008, 0.0085, 0.009, 0.010}
	fig10RBERs    = sweep(0.001, 0.016001, 0.001)
	accuracyRBERs = sweep(0.003, 0.033001, 0.002)
	softRBERs     = []float64{0.006, 0.0085, 0.010, 0.012, 0.015, 0.02}
)

// sweep lists lo, lo+step, ... up to hi. The step is accumulated, not
// multiplied, and that fixes the points' float values, which set each
// point's bit-flip count.
func sweep(lo, hi, step float64) []float64 {
	var out []float64
	for r := lo; r <= hi; r += step {
		out = append(out, r)
	}
	return out
}

// CapabilityPoint is one RBER point of the Fig. 3 study.
type CapabilityPoint struct {
	RBER        float64
	FailureProb float64
	AvgIters    float64
}

// Fig3 measures the decoding failure probability and the average
// iteration count of the QC-LDPC decoder across an RBER sweep, using
// the real min-sum decoder on samples noisy codewords per point. Each
// point is one gridMap cell, and p.Seed seeds its codeword stream.
func Fig3(p RunParams, cp CodeParams, samples int, rbers []float64) ([]CapabilityPoint, error) {
	code := cp.Build()
	return gridMap(p, len(rbers), func(p RunParams, i int) (CapabilityPoint, error) {
		r := rbers[i]
		dec := ldpc.NewMinSumDecoder(code, 0)
		rng := rand.New(rand.NewPCG(p.Seed, uint64(i)+100))
		fails, iters := 0, 0
		k := int(r*float64(code.N()) + 0.5)
		for s := 0; s < samples; s++ {
			cw := code.Encode(ldpc.RandomBits(code.K(), rng))
			res := dec.Decode(ldpc.FlipExact(cw, k, rng))
			if !res.OK {
				fails++
			}
			iters += res.Iterations
		}
		return CapabilityPoint{
			RBER:        r,
			FailureProb: float64(fails) / float64(samples),
			AvgIters:    float64(iters) / float64(samples),
		}, nil
	})
}

// FormatFig3 renders the Fig. 3 sweep.
func FormatFig3(points []CapabilityPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %12s %10s\n", "RBER", "P(failure)", "avg iters")
	for _, pt := range points {
		fmt.Fprintf(&b, "%10.4f %12.4f %10.1f\n", pt.RBER, pt.FailureProb, pt.AvgIters)
	}
	return b.String()
}

// CorrelationPoint is one RBER point of the Fig. 10 study.
type CorrelationPoint struct {
	RBER            float64
	AvgFullWeight   float64
	AvgPrunedWeight float64
}

// Fig10 measures the RBER-to-syndrome-weight correlation that
// justifies the RP heuristic over samples codewords per point, and
// returns the calibrated threshold rhoS alongside the sweep.
func Fig10(p RunParams, cp CodeParams, samples int, rbers []float64) (points []CorrelationPoint, rhoSFull, rhoSPruned int, err error) {
	code := cp.Build()
	points, err = gridMap(p, len(rbers), func(p RunParams, i int) (CorrelationPoint, error) {
		r := rbers[i]
		rng := rand.New(rand.NewPCG(p.Seed, uint64(i)+200))
		fullSum, prunedSum := 0, 0
		k := int(r*float64(code.N()) + 0.5)
		for s := 0; s < samples; s++ {
			cw := ldpc.FlipExact(code.Encode(ldpc.RandomBits(code.K(), rng)), k, rng)
			fullSum += code.SyndromeWeight(cw)
			prunedSum += code.FirstRowSyndromeWeight(cw)
		}
		return CorrelationPoint{
			RBER:            r,
			AvgFullWeight:   float64(fullSum) / float64(samples),
			AvgPrunedWeight: float64(prunedSum) / float64(samples),
		}, nil
	})
	return points,
		odear.RhoS(code, nand.ECCCapabilityRBER, false),
		odear.RhoS(code, nand.ECCCapabilityRBER, true), err
}

// FormatFig10 renders the Fig. 10 sweep and its calibrated
// thresholds.
func FormatFig10(points []CorrelationPoint, rhoSFull, rhoSPruned int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %12s %14s\n", "RBER", "full weight", "pruned weight")
	for _, pt := range points {
		fmt.Fprintf(&b, "%10.4f %12.1f %14.1f\n", pt.RBER, pt.AvgFullWeight, pt.AvgPrunedWeight)
	}
	fmt.Fprintf(&b, "rhoS (full) = %d, rhoS (pruned, used by RP hardware) = %d\n", rhoSFull, rhoSPruned)
	return b.String()
}

// AccuracyPoint is one RBER point of the Fig. 11 / Fig. 14 studies.
type AccuracyPoint struct {
	RBER     float64
	Accuracy float64
}

// RPAccuracy measures the agreement between the RP prediction and the
// real LDPC decode outcome across an RBER sweep, over samples
// codewords per point. approximate=false is Fig. 11 (full syndrome
// weight); approximate=true is Fig. 14 (chunk-based prediction with
// syndrome pruning).
func RPAccuracy(p RunParams, cp CodeParams, samples int, rbers []float64, approximate bool) ([]AccuracyPoint, error) {
	code := cp.Build()
	rp := odear.NewRP(code, nand.ECCCapabilityRBER, approximate)
	return gridMap(p, len(rbers), func(p RunParams, i int) (AccuracyPoint, error) {
		r := rbers[i]
		dec := ldpc.NewMinSumDecoder(code, 0)
		rng := rand.New(rand.NewPCG(p.Seed, uint64(i)+300))
		agree := 0
		k := int(r*float64(code.N()) + 0.5)
		for s := 0; s < samples; s++ {
			cw := ldpc.FlipExact(code.Encode(ldpc.RandomBits(code.K(), rng)), k, rng)
			predictRetry := rp.Predict(cw)
			actualFail := !dec.Decode(cw).OK
			if predictRetry == actualFail {
				agree++
			}
		}
		return AccuracyPoint{RBER: r, Accuracy: float64(agree) / float64(samples)}, nil
	})
}

// MeanAccuracyAbove averages the measured accuracy over points whose
// RBER exceeds the capability — the paper's headline 99.1% (full) and
// 98.7% (approximate) numbers.
func MeanAccuracyAbove(points []AccuracyPoint, capability float64) float64 {
	total, n := 0.0, 0
	for _, pt := range points {
		if pt.RBER > capability {
			total += pt.Accuracy
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// SoftGainStudy measures the capability extension soft-decision
// decoding buys over hard-decision decoding — the modern last-resort
// retry the related-work section situates RiF against. It returns the
// paired failure curves at samples codewords per point plus the
// estimated soft-decoding capability. The study is one gridMap cell:
// ldpc.MeasureSoftGain draws every point from one stream.
func SoftGainStudy(p RunParams, cp CodeParams, samples int, rbers []float64) (points []ldpc.SoftGainPoint, softCap float64, err error) {
	code := cp.Build()
	_, err = gridMap(p, 1, func(p RunParams, _ int) (struct{}, error) {
		points = ldpc.MeasureSoftGain(code, rbers, samples, p.Seed)
		softCap = ldpc.SoftCapability(code, samples/4+4, p.Seed)
		return struct{}{}, nil
	})
	return points, softCap, err
}

// FormatSoftGain renders the soft-vs-hard comparison.
func FormatSoftGain(points []ldpc.SoftGainPoint, softCap float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %12s %12s %11s %11s\n", "RBER", "hard P(fail)", "soft P(fail)", "hard iters", "soft iters")
	for _, pt := range points {
		fmt.Fprintf(&b, "%10.4f %12.3f %12.3f %11.1f %11.1f\n",
			pt.RBER, pt.HardFail, pt.SoftFail, pt.HardIters, pt.SoftIters)
	}
	fmt.Fprintf(&b, "estimated soft-decoding capability: %.4f (hard: %.4f)\n",
		softCap, nand.ECCCapabilityRBER)
	return b.String()
}

// FormatAccuracy renders an accuracy sweep.
func FormatAccuracy(points []AccuracyPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %10s\n", "RBER", "accuracy")
	for _, pt := range points {
		fmt.Fprintf(&b, "%10.4f %10.3f\n", pt.RBER, pt.Accuracy)
	}
	return b.String()
}
