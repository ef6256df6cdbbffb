package nand

import (
	"math"
	"testing"
)

// Condition's disturb table and misread's shared tail are speedups,
// not model changes: every value must be bit-equal to the plain
// math.Pow and two-Q formulas they replace.

// Every table entry and the first counts past the table are bit-equal
// to math.Pow, under the default exponent and others.
func TestDisturbTableMatchesPow(t *testing.T) {
	for _, exp := range []float64{DefaultModelParams().DisturbExp, 0.55, 1, 1.3} {
		p := DefaultModelParams()
		p.DisturbExp = exp
		m := NewModel(p, 1)
		for n := int64(0); n < disturbTable+8; n++ {
			got, want := m.disturbPower(n), math.Pow(float64(n), exp)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("exp %v: %d reads gives %v, math.Pow %v", exp, n, got, want)
			}
		}
	}
}

// refCondition is Condition with its disturb power computed by
// math.Pow, as before the table.
func refCondition(m *Model, variation float64, pe int, days float64, reads int64) PageCondition {
	if days < 0 {
		days = 0
	}
	wear := 1 + m.p.PEShiftBoost*float64(pe)/1000
	l := math.Log1p(days) * wear * variation
	c := PageCondition{
		shiftUnit: m.p.RetentionShift * l,
		sigma:     m.p.SigmaFresh * (1 + m.p.RetentionWiden*l + m.p.PEWiden*float64(pe)/1000),
	}
	if reads > 0 {
		dl := math.Pow(float64(reads), m.p.DisturbExp) * wear
		c.disturbUnit = m.p.DisturbShift * dl
		c.sigma *= 1 + m.p.DisturbWiden*dl
	}
	return c
}

// refRBER is ConditionRBER with both tails of every threshold summed
// from their own Q, as before the shared tail. It reports how many
// thresholds had bit-equal tail arguments.
func refRBER(m *Model, pt PageType, c PageCondition, mode VrefMode) (float64, int) {
	rber, equal := 0.0, 0
	for _, j := range thresholdsOf(pt) {
		v := m.vrefAt(j, mode, c)
		lo, hi := m.stateMean(j-1, c), m.stateMean(j, c)
		below, above := (v-lo)/c.sigma, (hi-v)/c.sigma
		if below == above {
			equal++
		}
		rber += (qFunc(below) + qFunc(above)) / 8
	}
	return capRBER(rber), equal
}

// ConditionRBER over Condition is bit-equal to the two-Q formula over
// a math.Pow condition across P/E, retention and read counts, for
// every page type and VREF mode, and the sweep reaches both branches.
func TestConditionRBERMatchesTwoTailFormula(t *testing.T) {
	m := NewDefaultModel(7)
	equal, cases := 0, 0
	for _, block := range []int{0, 3, 41} {
		variation := m.BlockVariation(block)
		for _, pe := range []int{0, 500, 1000, 2000, 3000} {
			for _, days := range []float64{0, 0.5, 3, 30, 180, 365} {
				for _, reads := range []int64{0, 1, 2, 17, 59, disturbTable - 1, disturbTable, disturbTable + 1, 1000, 200_000} {
					c := m.Condition(variation, pe, days, reads)
					if c != refCondition(m, variation, pe, days, reads) {
						t.Fatalf("Condition(pe %d, %v days, %d reads) = %+v, math.Pow gives %+v",
							pe, days, reads, c, refCondition(m, variation, pe, days, reads))
					}
					for _, pt := range []PageType{LSB, CSB, MSB} {
						for _, mode := range []VrefMode{DefaultVref, OptimalVref, TrackedVref} {
							want, eq := refRBER(m, pt, c, mode)
							got := m.ConditionRBER(pt, c, mode)
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%v mode %d pe %d %v days %d reads: ConditionRBER %v, two-Q formula %v",
									pt, mode, pe, days, reads, got, want)
							}
							equal += eq
							cases++
						}
					}
				}
			}
		}
	}
	if equal == 0 {
		t.Fatalf("no threshold in %d cases had bit-equal tails; the sweep misses the shared-Q branch", cases)
	}
}
