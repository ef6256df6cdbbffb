package odear

import "math"

// AccuracyModel is the probability form of RP used inside the SSD
// simulator: given a page's RBER it yields the probability that RP's
// correctability prediction agrees with the real LDPC outcome. The
// shape follows the paper's Figs. 11/14: near-perfect far from the
// capability, dipping to 50% exactly at it, with the poor-accuracy
// band covering "less than 2% of the overall RBER range".
type AccuracyModel struct {
	// Capability is the ECC correction capability RBER.
	Capability float64
	// Width is the RBER distance over which accuracy recovers from
	// 50% toward 100% (e-folding scale).
	Width float64
	// Floor is the asymptotic accuracy far from the capability
	// (slightly below 1 for the approximate predictor).
	Floor float64
}

// DefaultAccuracyModel returns the model calibrated to the paper's
// approximate predictor: 98.7% average accuracy for uncorrectable
// pages (Fig. 14).
func DefaultAccuracyModel(capability float64) AccuracyModel {
	return AccuracyModel{Capability: capability, Width: 0.00035, Floor: 0.995}
}

// Accuracy reports P(RP prediction correct | page RBER).
func (a AccuracyModel) Accuracy(rber float64) float64 {
	return a.accuracyAt(math.Abs(rber - a.Capability))
}

// accuracyAt is Accuracy at distance d from the capability: monotone
// in d, rising toward Floor when Floor > 0.5 and falling toward it
// when Floor < 0.5.
func (a AccuracyModel) accuracyAt(d float64) float64 {
	return a.Floor - (a.Floor-0.5)*math.Exp(-d/a.Width)
}

// PredictCorrect reports whether a prediction at this RBER is correct,
// given a uniform random draw u in [0,1) supplied by the caller (so
// the simulator controls the random stream).
func (a AccuracyModel) PredictCorrect(rber, u float64) bool {
	return u < a.Accuracy(rber)
}

// accuracyGuard absorbs math.Exp's ulp-level non-monotonicity when
// PredictCorrectRange bounds the accuracy over an interval by its
// values at the ends.
const accuracyGuard = 1.0 / (1 << 40)

// PredictCorrectRange is PredictCorrect for a page whose RBER is only
// known to lie in [lo, hi]: ok reports that every RBER in the range
// gives the same answer, correct. Accuracy depends on the distance
// from the capability, which float subtraction keeps monotone on each
// side of it, so its extremes over the range lie at the distance
// extremes; a point range is decided exactly. When ok is false the
// caller needs the exact RBER.
//
//riflint:hotpath
func (a AccuracyModel) PredictCorrectRange(lo, hi, u float64) (correct, ok bool) {
	if lo == hi {
		return a.PredictCorrect(lo, u), true
	}
	dLo, dHi := math.Abs(lo-a.Capability), math.Abs(hi-a.Capability)
	near, far := min(dLo, dHi), max(dLo, dHi)
	if lo <= a.Capability && a.Capability <= hi {
		near = 0
	}
	// least and most are the distances of least and most accuracy:
	// nearest the capability is least when Floor is above one half.
	least, most := near, far
	if a.Floor < 0.5 {
		least, most = far, near
	}
	if u < a.accuracyAt(least)-accuracyGuard {
		return true, true
	}
	return false, u >= a.accuracyAt(most)+accuracyGuard
}

// MeanAccuracyAbove reports the average accuracy over RBER values in
// (Capability, hi], the headline "prediction accuracy for
// uncorrectable pages" the paper quotes (99.1% full, 98.7% approx).
func (a AccuracyModel) MeanAccuracyAbove(hi float64, steps int) float64 {
	if steps <= 0 {
		steps = 64
	}
	total := 0.0
	for i := 1; i <= steps; i++ {
		r := a.Capability + (hi-a.Capability)*float64(i)/float64(steps)
		total += a.Accuracy(r)
	}
	return total / float64(steps)
}
