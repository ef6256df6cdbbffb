package nand

import (
	"testing"
)

func TestSenseAboveFractionMonotonic(t *testing.T) {
	m := NewDefaultModel(1)
	prev := 2.0
	for v := -500.0; v < 5000; v += 250 {
		f := m.SenseAboveFraction(0, 1000, 10, v)
		if f > prev {
			t.Fatalf("ones fraction increased with voltage at %v", v)
		}
		if f < 0 || f > 1 {
			t.Fatalf("fraction out of range: %v", f)
		}
		prev = f
	}
}

func TestSenseAboveFractionDriftSignal(t *testing.T) {
	// Retention drift moves charge out of the cells, so at a fixed
	// probe voltage the above-voltage fraction must fall — this is the
	// signal Swift-Read decodes.
	m := NewDefaultModel(1)
	probe := 6.5 * m.Params().StateGap
	fresh := m.SenseAboveFraction(0, 0, 0, probe)
	aged := m.SenseAboveFraction(0, 1000, 25, probe)
	if aged >= fresh {
		t.Fatalf("drift signal missing: fresh=%v aged=%v", fresh, aged)
	}
}

func TestSwiftReadEstimatesShiftAccurately(t *testing.T) {
	m := NewDefaultModel(1)
	for _, tc := range []struct {
		pe   int
		days float64
	}{
		{0, 20}, {500, 15}, {1000, 10}, {1000, 25}, {2000, 10}, {2000, 28},
	} {
		res := m.SwiftRead(0, MSB, tc.pe, tc.days)
		if res.TrueShift <= 0 {
			t.Fatalf("pe=%d d=%v: no true shift to estimate", tc.pe, tc.days)
		}
		err := res.EstimatedShift - res.TrueShift
		if err < 0 {
			err = -err
		}
		// Estimation error within a couple of DAC steps.
		if err > 25 {
			t.Fatalf("pe=%d d=%v: shift estimate %.1f vs true %.1f", tc.pe, tc.days, res.EstimatedShift, res.TrueShift)
		}
	}
}

func TestSwiftReadRescuesFailedPages(t *testing.T) {
	// §IV-C: after a Swift-Read the re-read page's RBER must be below
	// the ECC capability for every condition the paper evaluates.
	m := NewDefaultModel(1)
	for _, pe := range []int{0, 1000, 2000} {
		for _, pt := range []PageType{LSB, CSB, MSB} {
			for d := 1.0; d <= 31; d += 2 {
				if !needsRetry(m, 0, pt, pe, d, 0, DefaultVref) {
					continue
				}
				res := m.SwiftRead(0, pt, pe, d)
				if res.RBER > ECCCapabilityRBER {
					t.Fatalf("pe=%d %v d=%v: Swift-Read RBER %v above capability", pe, pt, d, res.RBER)
				}
			}
		}
	}
}

func TestSwiftReadNearOptimal(t *testing.T) {
	// The Swift-Read result should be close to the true optimal-VREF
	// RBER (within a small factor from DAC quantization).
	m := NewDefaultModel(1)
	res := m.SwiftRead(0, MSB, 1000, 20)
	opt := m.PageRBER(0, MSB, 1000, 20, 0, OptimalVref)
	if res.RBER > opt*3+1e-6 {
		t.Fatalf("Swift-Read RBER %v much worse than optimal %v", res.RBER, opt)
	}
}
