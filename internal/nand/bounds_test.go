package nand

import (
	"math"
	"math/rand/v2"
	"testing"
)

// checkEnclosure fails t unless ConditionBounds, when it answers,
// brackets ConditionRBER for every page type and VREF mode of c.
func checkEnclosure(t *testing.T, m *Model, c PageCondition) (answered int) {
	t.Helper()
	for _, pt := range []PageType{LSB, CSB, MSB} {
		for _, mode := range []VrefMode{DefaultVref, OptimalVref, TrackedVref} {
			lo, hi, ok := m.ConditionBounds(pt, c, mode)
			if !ok {
				continue
			}
			answered++
			exact := m.ConditionRBER(pt, c, mode)
			if !(lo <= exact && exact <= hi) {
				t.Fatalf("%+v %v mode %d: exact %v outside [%v, %v]", c, pt, mode, exact, lo, hi)
			}
		}
	}
	return answered
}

// Over the conditions the simulator meets — and well past them in
// wear, age and disturb — the enclosure holds, answers, and is tight:
// at most 0.6% wide relative to its upper end.
func TestConditionBoundsEnclose(t *testing.T) {
	m := NewDefaultModel(3)
	rng := rand.New(rand.NewPCG(1, 2))
	maxWidth := 0.0
	for n := 0; n < 20000; n++ {
		c := m.Condition(m.BlockVariation(rng.IntN(4096)), rng.IntN(6000), rng.Float64()*730, rng.Int64N(2_000_000))
		if got := checkEnclosure(t, m, c); got != 9 {
			t.Fatalf("%+v: bounds answered %d of 9 page type and mode pairs", c, got)
		}
		for _, pt := range []PageType{LSB, CSB, MSB} {
			for _, mode := range []VrefMode{DefaultVref, OptimalVref, TrackedVref} {
				lo, hi, _ := m.ConditionBounds(pt, c, mode)
				if hi > 0 && hi < 0.5 {
					maxWidth = math.Max(maxWidth, (hi-lo)/hi)
				}
			}
		}
	}
	if maxWidth > 0.006 {
		t.Errorf("widest enclosure is %.3f%% of its upper end, want at most 0.6%%", 100*maxWidth)
	}
	t.Logf("widest enclosure: %.3f%%", 100*maxWidth)
}

// The table's own grid points and their neighbouring floats are the
// arguments where a bracket is tightest and an ulp-level wobble of
// math.Erfc would show first.
func TestQBracketAtGridPoints(t *testing.T) {
	NewDefaultModel(1) // builds the table
	for i := 0; i < 2*qTableZero; i += 7 {
		x := float64(i-qTableZero) / qTableScale
		for _, y := range []float64{math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1))} {
			lo, hi, ok := qBracket(y)
			if !ok {
				if y < -qTableSpan {
					continue
				}
				t.Fatalf("qBracket(%v) did not answer", y)
			}
			if q := qFunc(y); !(lo <= q && q <= hi) {
				t.Fatalf("qFunc(%v) = %v outside [%v, %v]", y, q, lo, hi)
			}
		}
	}
	for _, y := range []float64{-qTableSpan - 1e-9, qTableSpan, math.Inf(1), math.Inf(-1), math.NaN()} {
		if _, _, ok := qBracket(y); ok {
			t.Errorf("qBracket(%v) answered outside the table", y)
		}
	}
}

// FuzzConditionBounds checks the enclosure on arbitrary finite
// conditions: negative shifts and disturb, tiny and negative sigmas,
// and tail arguments far outside the table on either side.
func FuzzConditionBounds(f *testing.F) {
	f.Add(100.0, 0.0, 80.0)
	f.Add(900.0, 50.0, 110.0)
	f.Add(-300.0, 2000.0, 3.0)
	f.Add(0.0, 0.0, 1e-9)
	f.Add(1e300, -1e300, -5.0)
	m := NewDefaultModel(1)
	f.Fuzz(func(t *testing.T, shift, disturb, sigma float64) {
		for _, v := range []float64{shift, disturb, sigma} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		checkEnclosure(t, m, PageCondition{shiftUnit: shift, disturbUnit: disturb, sigma: sigma})
	})
}
