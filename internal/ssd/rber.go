package ssd

import (
	"repro/internal/nand"
)

// A page read never needs its RBER as a number, only three step
// decisions on it: whether it exceeds the ECC capability, which
// decoder iteration count it bills, and whether RP's prediction at it
// is correct. Each page carries a certified enclosure [lo, hi] of its
// exact RBER from nand.ConditionBounds, and a decision is made from the
// enclosure whenever every RBER in it gives the same answer. Only when
// it straddles the decision's threshold is the exact RBER evaluated;
// the view then keeps it as a point range, so every later decision on
// that page is exact too. Each decision is a monotone function of the
// RBER, which is what makes agreement at the two ends enough.

// pageView is the resolved physical and reliability state of one page
// at command issue.
type pageView struct {
	blockID int
	// cond is the page's read condition at issue, from which its RBER
	// under any VREF mode is evaluated.
	cond nand.PageCondition
	// first encloses the RBER at the scheme's first-read VREF mode,
	// tightly enough that fails is settled.
	first rberRange
	// retry encloses the RBER after VREF adjustment (near-optimal):
	// the zero range until retryFails evaluates it.
	retry rberRange
	ptype nand.PageType
	fails bool // first read exceeds the ECC capability
	// predFail is RiF's on-die prediction that the first read fails
	// (set by planRiF).
	predFail bool
	// refined marks a retry range scaled by RiF's second-check
	// refinement, which an exact fallback must scale again.
	refined bool
}

// rberRange is an enclosure lo <= RBER <= hi; lo == hi holds the exact
// value.
type rberRange struct{ lo, hi float64 }

// exactly is the point range of an exact RBER.
func exactly(r float64) rberRange { return rberRange{r, r} }

// straddles reports that the range holds RBERs on both sides of t: a
// decision "RBER > t" cannot be made from it.
func (r rberRange) straddles(t float64) bool { return r.lo <= t && r.hi > t }

// secondCheckGain is how much RiF's second in-die Swift-Read pass
// lowers a caught page's retry RBER (diminishing returns on the
// first).
const secondCheckGain = 0.6

// refine applies RiF's second-check refinement to an evaluated retry
// range. Scaling both ends keeps it an enclosure of the scaled exact
// value, since multiplying by a positive constant is monotone.
func (p *pageView) refine() {
	p.retry.lo *= secondCheckGain
	p.retry.hi *= secondCheckGain
	p.refined = true
}

// enclose evaluates a page's RBER enclosure under mode; outside
// nand's table it is the exact value.
//
//riflint:hotpath
func (s *SSD) enclose(p *pageView, mode nand.VrefMode) rberRange {
	s.rberEvals++
	if lo, hi, ok := s.model.ConditionBounds(p.ptype, p.cond, mode); ok {
		return rberRange{lo, hi}
	}
	return s.exactRBER(p, mode)
}

// encloseFirst encloses a page's first-read RBER under the scheme's
// first-read mode, narrowing it to the exact value when it straddles
// the ECC capability, so that first.lo > Capability says whether the
// first read fails.
//
//riflint:hotpath
func (s *SSD) encloseFirst(p *pageView, mode nand.VrefMode) {
	p.first = s.enclose(p, mode)
	if p.first.straddles(s.dec.Capability) {
		p.first = s.exactRBER(p, mode)
	}
}

// exactRBER is the fallback: the page's exact RBER under mode.
//
//riflint:hotpath
func (s *SSD) exactRBER(p *pageView, mode nand.VrefMode) rberRange {
	s.rberExact++
	return exactly(s.model.ConditionRBER(p.ptype, p.cond, mode))
}

// exactFirst settles a page's first-read RBER exactly.
func (s *SSD) exactFirst(p *pageView) {
	p.first = s.exactRBER(p, vrefModeForScheme(s.cfg.Scheme))
}

// exactRetry settles a page's retry RBER exactly, refined as the range
// was.
func (s *SSD) exactRetry(p *pageView) {
	r := s.exactRBER(p, nand.OptimalVref)
	if p.refined {
		r = exactly(r.lo * secondCheckGain)
	}
	p.retry = r
}

// iterations reports the decoder iteration count every RBER in r
// bills, or ok false when the range spans two counts. Iterations is
// a monotone step function of the RBER, so equal counts at the ends
// settle it.
func (s *SSD) iterations(r rberRange) (int, bool) {
	it := s.dec.Iterations(r.lo)
	return it, r.lo == r.hi || it == s.dec.Iterations(r.hi)
}

// firstIters reports the iteration count of decoding a page's first
// read.
//
//riflint:hotpath
func (s *SSD) firstIters(p *pageView) int {
	if it, ok := s.iterations(p.first); ok {
		return it
	}
	s.exactFirst(p)
	return s.dec.Iterations(p.first.lo)
}

// retryFails reports whether a page's read after VREF adjustment
// exceeds the ECC capability, enclosing the retry RBER on first need:
// when RiF flags the page or a retry re-reads it. The range is kept in
// the view, so later retry rounds (and RiF's second-check refinement)
// reuse it.
//
//riflint:hotpath
func (s *SSD) retryFails(p *pageView) bool {
	if p.retry.hi == 0 {
		p.retry = s.enclose(p, nand.OptimalVref)
	}
	if p.retry.straddles(s.dec.Capability) {
		s.exactRetry(p)
	}
	return p.retry.lo > s.dec.Capability
}

// firstDecode reports the iteration count a page's first-read decode
// is billed at and whether it fails, after the injected-timeout draw.
//
//riflint:hotpath
func (s *SSD) firstDecode(p *pageView) (int, bool) {
	if s.timedOut(p.fails) {
		return s.dec.MaxIterations, true
	}
	return s.firstIters(p), p.fails
}

// retryDecode is firstDecode for the read after VREF adjustment.
//
//riflint:hotpath
func (s *SSD) retryDecode(p *pageView) (int, bool) {
	fails := s.retryFails(p)
	if s.timedOut(fails) {
		return s.dec.MaxIterations, true
	}
	if it, ok := s.iterations(p.retry); ok {
		return it, fails
	}
	s.exactRetry(p)
	return s.dec.Iterations(p.retry.lo), fails
}

// predictFirst reports whether RP's prediction on a page's first read
// is correct for the draw u.
//
//riflint:hotpath
func (s *SSD) predictFirst(p *pageView, u float64) bool {
	if correct, ok := s.acc.PredictCorrectRange(p.first.lo, p.first.hi, u); ok {
		return correct
	}
	s.exactFirst(p)
	return s.acc.PredictCorrect(p.first.lo, u)
}

// predictRetry reports whether RP's second-check prediction on a
// page's re-read is correct for the draw u.
//
//riflint:hotpath
func (s *SSD) predictRetry(p *pageView, u float64) bool {
	if correct, ok := s.acc.PredictCorrectRange(p.retry.lo, p.retry.hi, u); ok {
		return correct
	}
	s.exactRetry(p)
	return s.acc.PredictCorrect(p.retry.lo, u)
}
