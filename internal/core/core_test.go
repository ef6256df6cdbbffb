package core

import (
	"strings"
	"testing"

	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// fastParams shrinks everything for test speed.
func fastParams() RunParams {
	p := DefaultRunParams()
	p.Requests = 200
	return p
}

// fastCode shrinks the code for test speed; codeParams carries the
// stream seed the code-level studies draw codewords from.
func fastCode() CodeParams {
	p := DefaultCodeParams()
	p.Circulant = 128
	return p
}

func codeParams() RunParams {
	p := DefaultRunParams()
	p.Seed = 7
	return p
}

func TestRunOne(t *testing.T) {
	m, err := RunOne(fastParams(), ssd.RiF, "Ali124", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if m.RequestsCompleted != 200 || m.Bandwidth() <= 0 {
		t.Fatalf("bad metrics: %v", m)
	}
}

func TestRunOneRejectsBadInput(t *testing.T) {
	p := fastParams()
	if _, err := RunOne(p, ssd.RiF, "NoSuchTrace", 0); err == nil {
		t.Fatal("unknown workload accepted")
	}
	p.Requests = 0
	if _, err := RunOne(p, ssd.RiF, "Ali2", 0); err == nil {
		t.Fatal("zero requests accepted")
	}
}

func TestCompareSchemesGrid(t *testing.T) {
	tbl, err := CompareSchemes(fastParams(),
		[]ssd.Scheme{ssd.Zero, ssd.Sentinel, ssd.RiF},
		[]string{"Ali124", "Sys0"}, []int{0, 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Cells) != 3*2*2 {
		t.Fatalf("%d cells", len(tbl.Cells))
	}
	for _, c := range tbl.Cells {
		if c.MBps <= 0 {
			t.Fatalf("cell %+v empty", c)
		}
	}
	// RiF must beat Sentinel at 2K on a read-heavy trace.
	if gain := tbl.GeoMeanGain(ssd.RiF, ssd.Sentinel, 2000); gain < 0.2 {
		t.Fatalf("RiF over SENC at 2K = %v", gain)
	}
	out := tbl.Format(ssd.Sentinel, []ssd.Scheme{ssd.Zero, ssd.Sentinel, ssd.RiF}, []string{"Ali124", "Sys0"})
	if !strings.Contains(out, "SENC") || !strings.Contains(out, "geomean") {
		t.Fatalf("format output malformed:\n%s", out)
	}
}

func TestNormalizedToBaselineIsOne(t *testing.T) {
	tbl, err := CompareSchemes(fastParams(), []ssd.Scheme{ssd.Sentinel, ssd.RiF}, []string{"Sys1"}, []int{1000})
	if err != nil {
		t.Fatal(err)
	}
	norm := tbl.NormalizedTo(ssd.Sentinel)
	for _, r := range norm[ssd.Sentinel][1000] {
		if r != 1 {
			t.Fatalf("baseline normalized to %v", r)
		}
	}
}

func TestFig3CurveShape(t *testing.T) {
	pts, err := Fig3(codeParams(), fastCode(), 40, []float64{0.003, 0.0085, 0.012})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[0].FailureProb > 0.1 {
		t.Fatalf("failure prob at low RBER = %v", pts[0].FailureProb)
	}
	if pts[2].FailureProb < 0.9 {
		t.Fatalf("failure prob above capability = %v", pts[2].FailureProb)
	}
	if pts[0].AvgIters >= pts[1].AvgIters {
		t.Fatal("iterations did not grow with RBER")
	}
	if !strings.Contains(FormatFig3(pts), "P(failure)") {
		t.Fatal("format missing header")
	}
}

func TestFig10Correlation(t *testing.T) {
	pts, rhoFull, rhoPruned, err := Fig10(codeParams(), fastCode(), 40, []float64{0.002, 0.0085, 0.014})
	if err != nil {
		t.Fatal(err)
	}
	if rhoFull <= rhoPruned || rhoPruned <= 0 {
		t.Fatalf("rhoS full=%d pruned=%d", rhoFull, rhoPruned)
	}
	// Weight grows monotonically with RBER (Fig. 10's correlation).
	for i := 1; i < len(pts); i++ {
		if pts[i].AvgFullWeight <= pts[i-1].AvgFullWeight ||
			pts[i].AvgPrunedWeight <= pts[i-1].AvgPrunedWeight {
			t.Fatalf("syndrome weight not monotone: %+v", pts)
		}
	}
	// rhoS sits near the measured weight at the capability point.
	mid := pts[1]
	if d := mid.AvgPrunedWeight - float64(rhoPruned); d > 10 || d < -10 {
		t.Fatalf("pruned weight %v at capability vs rhoS %d", mid.AvgPrunedWeight, rhoPruned)
	}
}

func TestRPAccuracyHeadlines(t *testing.T) {
	rbers := []float64{0.004, 0.007, 0.0085, 0.011, 0.015, 0.021, 0.027, 0.033}
	full, err := RPAccuracy(codeParams(), fastCode(), 60, rbers, false)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := RPAccuracy(codeParams(), fastCode(), 60, rbers, true)
	if err != nil {
		t.Fatal(err)
	}
	mFull := MeanAccuracyAbove(full, nand.ECCCapabilityRBER)
	mApprox := MeanAccuracyAbove(approx, nand.ECCCapabilityRBER)
	// Paper: 99.1% (full) and 98.7% (approximate).
	if mFull < 0.93 {
		t.Fatalf("full accuracy above capability = %v", mFull)
	}
	if mApprox < 0.92 {
		t.Fatalf("approx accuracy above capability = %v", mApprox)
	}
	if !strings.Contains(FormatAccuracy(full), "accuracy") {
		t.Fatal("format missing header")
	}
}

func TestFig4Distribution(t *testing.T) {
	cells := Fig4(1, 60, []int{0, 500, 1000})
	if len(cells) == 0 {
		t.Fatal("no cells")
	}
	// Proportions per P/E sum to ~1.
	sums := map[int]float64{}
	for _, c := range cells {
		sums[c.PECycles] += c.Proportion
	}
	for pe, s := range sums {
		if s < 0.99 || s > 1.01 {
			t.Fatalf("pe=%d proportions sum to %v", pe, s)
		}
	}
	// Onset shrinks with wear.
	if !(OnsetDay(cells, 0) > OnsetDay(cells, 500) && OnsetDay(cells, 500) > OnsetDay(cells, 1000)) {
		t.Fatalf("onset not shrinking: %d %d %d",
			OnsetDay(cells, 0), OnsetDay(cells, 500), OnsetDay(cells, 1000))
	}
	if !strings.Contains(FormatFig4(cells), "onset") {
		t.Fatal("format missing onset")
	}
}

func TestFig12Similarity(t *testing.T) {
	pts := Fig12(1, 300)
	s4 := MaxSpreadFor(pts, 4)
	s1 := MaxSpreadFor(pts, 1)
	if s4 <= 0 || s1 <= s4 {
		t.Fatalf("spreads: 4K=%v 1K=%v", s4, s1)
	}
	// Paper bounds: <=4.5% at 4 KiB, <=13.5% at 1 KiB (we allow 2x).
	if s4 > 0.09 || s1 > 0.27 {
		t.Fatalf("spreads exceed paper scale: 4K=%v 1K=%v", s4, s1)
	}
	if !strings.Contains(FormatFig12(pts), "max spread") {
		t.Fatal("format missing header")
	}
}

func TestTimelinesMatchPaper(t *testing.T) {
	results, err := Timelines(RunParams{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d timelines", len(results))
	}
	for _, r := range results {
		us := r.Total.Microseconds()
		if us < r.PaperUS*0.95 || us > r.PaperUS*1.05 {
			t.Errorf("%v: %vus vs paper %vus", r.Scheme, us, r.PaperUS)
		}
		for _, row := range []string{"die0", "die1", "ch0"} {
			if !strings.Contains(r.Gantt, row) {
				t.Errorf("%v: Gantt has no %s row:\n%s", r.Scheme, row, r.Gantt)
			}
		}
	}
	if !strings.Contains(FormatTimelines(results), "paper") {
		t.Fatal("format missing header")
	}
}

func TestRenderGantt(t *testing.T) {
	spans := []obs.Span{
		{Resource: "die0", Label: "A", Start: 0, End: 40 * sim.Microsecond},
		{Resource: "ch0", Label: "A", Start: 40 * sim.Microsecond, End: 90 * sim.Microsecond},
		{Resource: "die0", Label: "A'", Start: 100 * sim.Microsecond, End: 140 * sim.Microsecond},
	}
	out := renderGantt(spans, 5)
	if !strings.Contains(out, "die0") || !strings.Contains(out, "ch0") {
		t.Fatalf("rows missing:\n%s", out)
	}
	if !strings.Contains(out, "A") {
		t.Fatal("glyph A missing")
	}
	if !strings.Contains(out, "a") {
		t.Fatal("retry glyph (lowercase) missing")
	}
	if renderGantt(nil, 5) != "(no spans recorded)\n" {
		t.Fatal("empty render wrong")
	}
}

func TestSoftGainStudy(t *testing.T) {
	points, softCap, err := SoftGainStudy(codeParams(), fastCode(), 24, []float64{0.0085, 0.012})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("%d points", len(points))
	}
	for _, pt := range points {
		if pt.SoftFail > pt.HardFail {
			t.Fatalf("soft decoding worse than hard at %v: %+v", pt.RBER, pt)
		}
	}
	if softCap <= 0.0085 {
		t.Fatalf("soft capability %v not above hard", softCap)
	}
	if !strings.Contains(FormatSoftGain(points, softCap), "soft P(fail)") {
		t.Fatal("format missing header")
	}
}

func TestOverheadStudy(t *testing.T) {
	o, err := OverheadStudy(fastParams())
	if err != nil {
		t.Fatal(err)
	}
	if o.AreaMM2 != 0.012 || o.PowerMW != 1.28 {
		t.Fatal("synthesis constants wrong")
	}
	if o.Predictions == 0 || o.AvoidedTransfers == 0 {
		t.Fatalf("no prediction activity: %+v", o)
	}
	if o.NetEnergyDeltaNJ >= 0 {
		t.Fatalf("net energy %v nJ, want saving at 2K", o.NetEnergyDeltaNJ)
	}
	if !strings.Contains(o.Format(), "mm^2") {
		t.Fatal("format missing area")
	}
}
