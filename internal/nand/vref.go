package nand

// This file models read-reference-voltage (VREF) adjustment: the
// Swift-Read ones-counting estimator (§III-B) that both the SWR
// baseline and RiF's RVS module use to jump straight to near-optimal
// voltages. The simulators model that re-read as a PageRBER sense at
// OptimalVref; SwiftRead is the reference the tests hold that
// shortcut to.

// SenseAboveFraction reports the fraction of cells whose Vth exceeds
// voltage v under the given condition — what a single-threshold sense
// measures. Swift-Read's heuristic feeds on this: with randomized
// data the expected fraction is a known constant, and the deviation
// encodes the Vth drift.
func (m *Model) SenseAboveFraction(blockID int, pe int, retentionDays float64, v float64) float64 {
	c := m.conditionAt(blockID, pe, retentionDays, 0)
	f := 0.0
	for i := 0; i < 8; i++ {
		f += qFunc((v - m.stateMean(i, c)) / c.sigma)
	}
	return f / 8
}

// SwiftReadResult reports the outcome of a Swift-Read estimation.
type SwiftReadResult struct {
	// EstimatedShift is the estimated top-state Vth downshift.
	EstimatedShift float64
	// TrueShift is the model's actual downshift, for accuracy checks.
	TrueShift float64
	// RBER is the page's RBER when re-read at the estimated voltages.
	RBER float64
}

// SwiftRead models the in-chip Swift-Read command: a first sense at a
// predefined voltage (the midpoint of the top threshold's fresh
// distributions — "the most representative VREF value"), whose
// ones-count reveals the drift, followed by a re-read at the
// estimated near-optimal voltages.
func (m *Model) SwiftRead(blockID int, pt PageType, pe int, retentionDays float64) SwiftReadResult {
	c := m.conditionAt(blockID, pe, retentionDays, 0)
	probe := m.defaultVref(7) // predefined probe voltage, top threshold
	measured := m.SenseAboveFraction(blockID, pe, retentionDays, probe)

	// Invert the forward model by bisecting on the shift that would
	// produce the measured fraction. The estimator quantizes to the
	// chip's VREF DAC step, leaving a small residual error.
	const dacStep = 10.0
	lo, hi := 0.0, 2*m.p.StateGap
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		// The above-probe fraction falls as the shift grows; a
		// too-high modeled fraction means the true shift is larger.
		if m.fractionAboveWithShift(probe, mid, c.sigma) > measured {
			lo = mid
		} else {
			hi = mid
		}
	}
	est := float64(int((lo+hi)/2/dacStep+0.5)) * dacStep

	// Re-read at voltages centered for the estimated shift; the
	// residual estimation error degrades RBER only marginally.
	rber := m.pageRBERWithAssumedShift(blockID, pt, pe, retentionDays, est)
	return SwiftReadResult{EstimatedShift: est, TrueShift: c.shiftUnit, RBER: rber}
}

// fractionAboveWithShift computes the fraction of cells above v if
// the top-state downshift were s (states scale linearly with index).
func (m *Model) fractionAboveWithShift(v, s, sigma float64) float64 {
	f := 0.0
	for i := 0; i < 8; i++ {
		mean := float64(i)*m.p.StateGap - s*(0.5+0.5*float64(i)/7)
		f += qFunc((v - mean) / sigma)
	}
	return f / 8
}

// pageRBERWithAssumedShift evaluates the RBER when the chip re-reads
// with voltages placed at the optimum implied by an assumed shift.
func (m *Model) pageRBERWithAssumedShift(blockID int, pt PageType, pe int, retentionDays float64, assumed float64) float64 {
	c := m.conditionAt(blockID, pe, retentionDays, 0)
	// Voltage for threshold j assuming top-state shift `assumed`:
	// midpoint of the two adjacent states under that assumption.
	mean := func(i int) float64 { return float64(i)*m.p.StateGap - assumed*(0.5+0.5*float64(i)/7) }
	rber := 0.0
	for _, j := range thresholdsOf(pt) {
		rber += m.misread(j, c, (mean(j-1)+mean(j))/2)
	}
	return capRBER(rber)
}
