package nand

import "testing"

// The read-disturb regression suite: conditionAt used to ignore its
// reads parameter entirely, leaving disturb as a flat additive RBER
// term that every VREF mode saw identically. These tests pin the
// corrected behaviour — disturb reshapes the distributions, so its
// cost depends on where the read voltages sit.

// disturbAdded reports the RBER increase caused by `reads` block reads
// in the given mode.
func disturbAdded(m *Model, pt PageType, pe int, days float64, reads int64, mode VrefMode) float64 {
	return m.PageRBER(7, pt, pe, days, reads, mode) - m.PageRBER(7, pt, pe, days, 0, mode)
}

// TestDisturbDiffersAcrossVrefModes pins the tentpole fix: read
// disturb is no longer a mode-independent constant added after the
// per-threshold sum — a default-VREF read pays more for the same
// disturb than a re-optimized read, because recentring the voltages
// compensates part of the shift but none of the widening.
func TestDisturbDiffersAcrossVrefModes(t *testing.T) {
	m := NewDefaultModel(1)
	const reads = 200_000
	addDef := disturbAdded(m, CSB, 1000, 5, reads, DefaultVref)
	addOpt := disturbAdded(m, CSB, 1000, 5, reads, OptimalVref)
	addTrk := disturbAdded(m, CSB, 1000, 5, reads, TrackedVref)
	if addDef <= 0 || addOpt <= 0 || addTrk <= 0 {
		t.Fatalf("disturb must increase RBER in every mode: def=%+.3e opt=%+.3e trk=%+.3e", addDef, addOpt, addTrk)
	}
	if addDef < 1.5*addOpt {
		t.Errorf("disturb is mode-independent again: default-VREF added %.3e, optimal-VREF added %.3e (want def >= 1.5x opt)", addDef, addOpt)
	}
	if addTrk <= addOpt || addTrk >= addDef {
		t.Errorf("tracked-VREF disturb %.3e should sit between optimal %.3e and default %.3e", addTrk, addOpt, addDef)
	}
}

// TestDisturbSmallReadsCalibration anchors the power-law coefficients:
// in the small-reads regime the default-VREF increase must track the
// pre-fix linear model (2e-9 RBER per read) within a factor of two, so
// every paper-calibrated figure keeps its error budget.
func TestDisturbSmallReadsCalibration(t *testing.T) {
	m := NewDefaultModel(1)
	for _, reads := range []int64{50_000, 100_000, 200_000} {
		added := disturbAdded(m, CSB, 1000, 5, reads, DefaultVref)
		linear := 2e-9 * float64(reads)
		if added < linear/2 || added > 2*linear {
			t.Errorf("reads=%d: disturb added %.3e, linear model %.3e (want within 2x)", reads, added, linear)
		}
	}
}

// TestDisturbMonotoneInReads pins strict growth: more reads, more
// errors, in both VREF modes (the old model could even reduce
// default-VREF RBER when shift and retention drift cancelled).
func TestDisturbMonotoneInReads(t *testing.T) {
	m := NewDefaultModel(1)
	for _, mode := range []VrefMode{DefaultVref, OptimalVref, TrackedVref} {
		prev := m.PageRBER(3, MSB, 1500, 10, 0, mode)
		for _, reads := range []int64{10_000, 100_000, 1_000_000, 10_000_000} {
			r := m.PageRBER(3, MSB, 1500, 10, reads, mode)
			if r <= prev {
				t.Fatalf("mode %d: RBER not monotone in reads: %.3e at %d reads vs %.3e before", mode, r, reads, prev)
			}
			prev = r
		}
	}
}
