package ssd

import (
	"math"
	"math/rand/v2"
	"testing"
	"unsafe"

	"repro/internal/nand"
)

// readDecisions are the decisions a read takes on a page's RBER.
type readDecisions struct {
	fails, retryFails, retryFailsRefined       bool
	iters, retryIters, retryItersRefined       int
	correct, retryCorrect, retryCorrectRefined bool
}

// decideExactly takes them on the exact RBER, as the read path did
// before enclosures.
func decideExactly(s *SSD, pt nand.PageType, c nand.PageCondition, mode nand.VrefMode, u float64) readDecisions {
	first := s.model.ConditionRBER(pt, c, mode)
	retry := s.model.ConditionRBER(pt, c, nand.OptimalVref)
	refined := retry * secondCheckGain
	return readDecisions{
		fails:               first > s.dec.Capability,
		retryFails:          retry > s.dec.Capability,
		retryFailsRefined:   refined > s.dec.Capability,
		iters:               s.dec.Iterations(first),
		retryIters:          s.dec.Iterations(retry),
		retryItersRefined:   s.dec.Iterations(refined),
		correct:             s.acc.PredictCorrect(first, u),
		retryCorrect:        s.acc.PredictCorrect(retry, u),
		retryCorrectRefined: s.acc.PredictCorrect(refined, u),
	}
}

// decideEnclosed takes the same decisions through the read path's
// enclosure methods, in the order a RiF read with the second check
// takes them, on a view of its own per decision chain.
func decideEnclosed(s *SSD, pt nand.PageType, c nand.PageCondition, mode nand.VrefMode, u float64) readDecisions {
	var d readDecisions
	view := func() *pageView {
		p := &pageView{ptype: pt, cond: c}
		s.encloseFirst(p, mode)
		p.fails = p.first.lo > s.dec.Capability
		return p
	}
	p := view()
	d.fails = p.fails
	d.iters = s.firstIters(p)
	d.correct = s.predictFirst(view(), u)

	p = view()
	d.retryFails = s.retryFails(p)
	d.retryCorrect = s.predictRetry(p, u)
	d.retryIters, _ = s.retryDecode(p)

	p = view()
	s.retryFails(p)
	p.refine()
	d.retryCorrectRefined = s.predictRetry(p, u)
	d.retryFailsRefined = s.retryFails(p)
	d.retryItersRefined, _ = s.retryDecode(p)
	return d
}

// nearThreshold draws a condition whose RBER under mode lies within
// 0.5% of a decision threshold: the capability, the capability before
// the second check's refinement, or an iteration-count boundary. It
// bisects on retention age at a random wear, block and read count,
// and gives up (ok false) when the threshold is out of reach.
func nearThreshold(s *SSD, rng *rand.Rand, pt nand.PageType, mode nand.VrefMode) (nand.PageCondition, bool) {
	capability := s.dec.Capability
	var target float64
	switch k := rng.IntN(4); k {
	case 0:
		target = capability
	case 1:
		target = capability / secondCheckGain
	default:
		// Iterations steps where 19*(r/cap)^3 crosses an odd half.
		j := 1 + rng.IntN(s.dec.MaxIterations-1)
		target = capability * math.Cbrt((float64(j)-0.5)/float64(s.dec.MaxIterations-1))
	}
	target *= 1 + 0.005*(2*rng.Float64()-1)
	variation, pe, reads := s.model.BlockVariation(rng.IntN(4096)), rng.IntN(4000), rng.Int64N(200000)
	rber := func(days float64) float64 {
		return s.model.ConditionRBER(pt, s.model.Condition(variation, pe, days, reads), mode)
	}
	lo, hi := 0.0, 3650.0
	if rber(lo) > target || rber(hi) < target {
		return nand.PageCondition{}, false
	}
	for i := 0; i < 60; i++ {
		if mid := (lo + hi) / 2; rber(mid) > target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return s.model.Condition(variation, pe, lo, reads), true
}

// Deciding from enclosures is a speedup, not a model change: for
// random conditions, every scheme's first-read VREF mode, the retry
// read at OptimalVref, random prediction draws and the second check's
// refinement, each decision equals the one taken on the exact RBER.
// Half the conditions are drawn within 0.5% of a decision threshold,
// where enclosures straddle it and the fallback is exercised.
func TestEnclosureDecisionsMatchExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for _, sc := range AllSchemes() {
		if sc == Zero {
			continue
		}
		for _, floor := range []float64{0, 0.3} {
			cfg := DefaultConfig(sc, 1000)
			cfg.PredictionFloor = floor
			s, err := New(cfg, allocStubWorkload{})
			if err != nil {
				t.Fatal(err)
			}
			mode := vrefModeForScheme(sc)
			const n = 6000
			for i := 0; i < n; i++ {
				pt := nand.PageType(rng.IntN(3))
				c := s.model.Condition(s.model.BlockVariation(rng.IntN(4096)), rng.IntN(4000), rng.Float64()*120, rng.Int64N(200000))
				if i%2 == 0 {
					m := mode
					if rng.IntN(2) == 0 {
						m = nand.OptimalVref
					}
					if near, ok := nearThreshold(s, rng, pt, m); ok {
						c = near
					}
				}
				u := rng.Float64()
				if i%8 == 0 {
					// Draws right at the accuracy of the exact RBER
					// are the ones a loose guard would get wrong.
					u = s.acc.Accuracy(s.model.ConditionRBER(pt, c, mode))
				}
				want := decideExactly(s, pt, c, mode, u)
				if got := decideEnclosed(s, pt, c, mode, u); got != want {
					t.Fatalf("%v %+v page %v u %v: enclosed %+v, exact %+v", sc, c, pt, u, got, want)
				}
			}
			t.Logf("%v, floor %v: %d of %d evaluations fell back", sc, floor, s.rberExact, s.rberEvals)
			if s.rberExact == 0 || s.rberExact == s.rberEvals {
				t.Errorf("%v: %d of %d evaluations fell back; both paths must be exercised", sc, s.rberExact, s.rberEvals)
			}
		}
	}
}

// Over Fig. 17 cells at test sizing, at most 5% of RBER evaluations
// fall back to the exact value: the enclosures are tight enough to pay
// for themselves.
func TestEnclosureFallbackShare(t *testing.T) {
	var evals, exact int64
	for _, pe := range []int{0, 1000, 2000} {
		for _, wl := range []string{"Ali2", "Ali124", "Sys0"} {
			for _, sc := range AllSchemes() {
				s, err := New(benchConfig(sc, pe), smallWorkload(t, wl, 1))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Run(300); err != nil {
					t.Fatal(err)
				}
				evals += s.rberEvals
				exact += s.rberExact
			}
		}
	}
	share := float64(exact) / float64(evals)
	t.Logf("%d of %d RBER evaluations fell back to the exact value (%.2f%%)", exact, evals, 100*share)
	if evals == 0 || share > 0.05 {
		t.Errorf("fallback share %.2f%% of %d evaluations, want at most 5%%", 100*share, evals)
	}
}

// A page view stays within 96 bytes, so a command's scratch of them
// stays within the bytes it had when it carried the page's address.
func TestPageViewSize(t *testing.T) {
	if n := unsafe.Sizeof(pageView{}); n > 96 {
		t.Errorf("pageView is %d bytes, want at most 96", n)
	}
}
