package ldpc

import (
	"math"
	"math/rand/v2"
)

// SoftChannel models the reliability information a soft read
// produces: extra senses at offset read voltages classify each bit as
// strong (far from the threshold) or weak (in the uncertain zone
// around it). Errors concentrate in the weak zone, so weak bits get a
// small LLR magnitude and strong bits a large one.
type SoftChannel struct {
	// RBER is the channel's raw bit error rate.
	RBER float64
	// ZoneCapture is the probability that an erroneous bit lands in
	// the weak zone (higher with more sense levels); 0.9 is typical
	// of a 2-extra-sense (3-level) soft read.
	ZoneCapture float64
	// ZoneFraction is the fraction of *correct* bits that also fall
	// in the weak zone (the zone is narrow but not empty).
	ZoneFraction float64
	// StrongLLR and WeakLLR are the magnitudes assigned outside and
	// inside the zone.
	StrongLLR, WeakLLR float64
}

// DefaultSoftChannel returns a 3-level soft-read model for the given
// RBER.
func DefaultSoftChannel(rber float64) SoftChannel {
	return SoftChannel{
		RBER:         rber,
		ZoneCapture:  0.9,
		ZoneFraction: 0.06,
		StrongLLR:    4,
		WeakLLR:      0.6,
	}
}

// Observe corrupts the codeword with the channel's RBER and produces
// the per-bit LLRs a soft read would report. The returned hard word
// (sign of each LLR) equals the corrupted word.
func (c SoftChannel) Observe(cw Bits, rng *rand.Rand) (hard Bits, llrs []float32) {
	hard = FlipRandom(cw, c.RBER, rng)
	n := cw.Len()
	llrs = make([]float32, n)
	for v := 0; v < n; v++ {
		flipped := hard.Get(v) != cw.Get(v)
		inZone := false
		if flipped {
			inZone = rng.Float64() < c.ZoneCapture
		} else {
			inZone = rng.Float64() < c.ZoneFraction
		}
		mag := c.StrongLLR
		if inZone {
			mag = c.WeakLLR
		}
		if hard.Get(v) {
			llrs[v] = float32(-mag)
		} else {
			llrs[v] = float32(mag)
		}
	}
	return hard, llrs
}

// SoftGainPoint compares hard and soft decoding at one RBER.
type SoftGainPoint struct {
	RBER                 float64
	HardFail, SoftFail   float64
	HardIters, SoftIters float64
}

// MeasureSoftGain runs paired hard/soft decodes over samples
// codewords at each RBER, quantifying the capability extension soft
// reads buy.
func MeasureSoftGain(code *Code, rbers []float64, samples int, seed uint64) []SoftGainPoint {
	return measureSoftGain(code, rbers, samples, seed, true)
}

// measureSoftGain is MeasureSoftGain, except that with hard false it
// runs no hard decode and leaves HardFail and HardIters zero. Decoding
// draws no randomness, so the soft columns are the same either way.
func measureSoftGain(code *Code, rbers []float64, samples int, seed uint64, hard bool) []SoftGainPoint {
	out := make([]SoftGainPoint, len(rbers))
	dec := NewMinSumDecoder(code, 0)
	rng := rand.New(rand.NewPCG(seed, 0x50f7))
	for i, r := range rbers {
		ch := DefaultSoftChannel(r)
		hardFails, softFails := 0, 0
		hardIters, softIters := 0, 0
		for s := 0; s < samples; s++ {
			cw := code.Encode(RandomBits(code.K(), rng))
			bits, llrs := ch.Observe(cw, rng)
			if hard {
				hres := dec.Decode(bits)
				if !hres.OK {
					hardFails++
				}
				hardIters += hres.Iterations
			}
			sres := dec.DecodeSoft(llrs)
			if !sres.OK {
				softFails++
			}
			softIters += sres.Iterations
		}
		out[i] = SoftGainPoint{
			RBER:      r,
			HardFail:  float64(hardFails) / float64(samples),
			SoftFail:  float64(softFails) / float64(samples),
			HardIters: float64(hardIters) / float64(samples),
			SoftIters: float64(softIters) / float64(samples),
		}
	}
	return out
}

// SoftCapability estimates the RBER at which soft decoding starts
// failing more than half the time, by bisection over the channel
// model. Only the soft decodes are run.
func SoftCapability(code *Code, samples int, seed uint64) float64 {
	lo, hi := 0.005, 0.05
	for i := 0; i < 12; i++ {
		mid := (lo + hi) / 2
		pts := measureSoftGain(code, []float64{mid}, samples, seed+uint64(i), false)
		if pts[0].SoftFail > 0.5 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Round((lo+hi)/2*1e4) / 1e4
}
