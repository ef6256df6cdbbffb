package odear

import (
	"math/rand/v2"
	"testing"

	"repro/internal/ldpc"
	"repro/internal/nand"
)

func testCode() *ldpc.Code { return ldpc.NewCode(4, 36, 256, 7) }

func TestRhoSScalesWithRows(t *testing.T) {
	cd := testCode()
	full := RhoS(cd, nand.ECCCapabilityRBER, false)
	pruned := RhoS(cd, nand.ECCCapabilityRBER, true)
	if pruned <= 0 || full <= pruned {
		t.Fatalf("rhoS full=%d pruned=%d", full, pruned)
	}
	// Pruning keeps one of four block rows; thresholds differ by ~4x.
	if ratio := float64(full) / float64(pruned); ratio < 3 || ratio > 5 {
		t.Fatalf("full/pruned threshold ratio = %v", ratio)
	}
}

func TestRhoSMatchesEmpiricalWeight(t *testing.T) {
	// The analytic threshold must sit near the measured mean syndrome
	// weight of pages at exactly the capability RBER (Fig. 10's
	// construction of ρs).
	cd := testCode()
	rp := NewRP(cd, nand.ECCCapabilityRBER, true)
	rng := rand.New(rand.NewPCG(1, 1))
	k := int(nand.ECCCapabilityRBER*float64(cd.N()) + 0.5)
	sum, trials := 0, 200
	for i := 0; i < trials; i++ {
		cw := ldpc.FlipExact(cd.Encode(ldpc.RandomBits(cd.K(), rng)), k, rng)
		sum += rp.Weight(cw)
	}
	mean := float64(sum) / float64(trials)
	if d := mean - float64(rp.RhoS); d > 8 || d < -8 {
		t.Fatalf("empirical mean weight %.1f vs rhoS %d", mean, rp.RhoS)
	}
}

func TestPredictCleanPage(t *testing.T) {
	cd := testCode()
	rng := rand.New(rand.NewPCG(2, 1))
	cw := cd.Encode(ldpc.RandomBits(cd.K(), rng))
	for _, approx := range []bool{true, false} {
		rp := NewRP(cd, nand.ECCCapabilityRBER, approx)
		if rp.Predict(cw) {
			t.Fatalf("approx=%v: clean page predicted to need retry", approx)
		}
	}
}

func TestPredictHopelessPage(t *testing.T) {
	cd := testCode()
	rng := rand.New(rand.NewPCG(3, 1))
	cw := ldpc.FlipRandom(cd.Encode(ldpc.RandomBits(cd.K(), rng)), 0.03, rng)
	for _, approx := range []bool{true, false} {
		rp := NewRP(cd, nand.ECCCapabilityRBER, approx)
		if !rp.Predict(cw) {
			t.Fatalf("approx=%v: hopeless page predicted correctable", approx)
		}
	}
}

func TestPredictAccuracyAwayFromCapability(t *testing.T) {
	// Fig. 14: far from the capability the predictor is essentially
	// always right. Check both sides at 2x distance.
	cd := testCode()
	rp := NewRP(cd, nand.ECCCapabilityRBER, true)
	dec := ldpc.NewMinSumDecoder(cd, 0)
	rng := rand.New(rand.NewPCG(4, 1))
	for _, rber := range []float64{0.004, 0.017} {
		agree, trials := 0, 40
		for i := 0; i < trials; i++ {
			cw := cd.Encode(ldpc.RandomBits(cd.K(), rng))
			k := int(rber*float64(cd.N()) + 0.5)
			bad := ldpc.FlipExact(cw, k, rng)
			predictRetry := rp.Predict(bad)
			actualFail := !dec.Decode(bad).OK
			if predictRetry == actualFail {
				agree++
			}
		}
		if float64(agree)/float64(trials) < 0.9 {
			t.Fatalf("rber=%v: accuracy %d/%d below 90%%", rber, agree, trials)
		}
	}
}

func TestPredictRearrangedMatchesPredict(t *testing.T) {
	cd := testCode()
	rp := NewRP(cd, nand.ECCCapabilityRBER, true)
	rng := rand.New(rand.NewPCG(5, 1))
	for _, rber := range []float64{0.002, 0.0085, 0.02} {
		cw := ldpc.FlipRandom(cd.Encode(ldpc.RandomBits(cd.K(), rng)), rber, rng)
		if rp.Predict(cw) != rp.PredictRearranged(cd.Rearrange(cw)) {
			t.Fatalf("rber=%v: rearranged prediction disagrees", rber)
		}
	}
}

func TestRVSReselectRescues(t *testing.T) {
	m := nand.NewDefaultModel(1)
	rvs := &RVS{Model: m}
	// A condition that needs retry at default VREF.
	if !m.NeedsRetry(0, nand.MSB, 2000, 20, 0, nand.DefaultVref) {
		t.Skip("condition unexpectedly healthy")
	}
	rber := rvs.Reselect(0, nand.MSB, 2000, 20)
	if rber > nand.ECCCapabilityRBER {
		t.Fatalf("RVS re-read RBER %v above capability", rber)
	}
}

func TestNewEngineWiring(t *testing.T) {
	cd := testCode()
	eng := NewEngine(cd, nand.NewDefaultModel(1), nand.ECCCapabilityRBER)
	if eng.RP == nil || eng.RVS == nil || !eng.RP.Approximate {
		t.Fatal("engine not assembled with approximate RP")
	}
}

func TestAccuracyModelShape(t *testing.T) {
	a := DefaultAccuracyModel(nand.ECCCapabilityRBER)
	// Exactly at the capability: coin flip.
	if acc := a.Accuracy(nand.ECCCapabilityRBER); acc < 0.49 || acc > 0.51 {
		t.Fatalf("accuracy at capability = %v, want ~0.5", acc)
	}
	// Far away: near the floor.
	if acc := a.Accuracy(0.02); acc < 0.99 {
		t.Fatalf("accuracy far above capability = %v", acc)
	}
	if acc := a.Accuracy(0.001); acc < 0.99 {
		t.Fatalf("accuracy far below capability = %v", acc)
	}
	// Monotone recovery on both sides.
	if a.Accuracy(0.009) >= a.Accuracy(0.012) {
		t.Fatal("accuracy not recovering above capability")
	}
	if a.Accuracy(0.008) >= a.Accuracy(0.005) {
		t.Fatal("accuracy not recovering below capability")
	}
}

func TestAccuracyModelHeadlineNumber(t *testing.T) {
	// Paper: 98.7% average prediction accuracy for uncorrectable
	// pages over the feasible RBER range (Fig. 14).
	a := DefaultAccuracyModel(nand.ECCCapabilityRBER)
	mean := a.MeanAccuracyAbove(0.033, 128)
	if mean < 0.975 || mean > 0.9999 {
		t.Fatalf("mean accuracy above capability = %v, paper ~0.987", mean)
	}
}

func TestPredictCorrectUsesCallerRandomness(t *testing.T) {
	a := DefaultAccuracyModel(nand.ECCCapabilityRBER)
	if !a.PredictCorrect(0.02, 0.0) {
		t.Fatal("u=0 must always be correct")
	}
	if a.PredictCorrect(0.02, 0.99999) {
		t.Fatal("u~1 must be incorrect for floor<1")
	}
}

func TestHardwareConstants(t *testing.T) {
	// §VI-C figures are part of the public contract of this package.
	if AreaMM2 != 0.012 || PowerMW != 1.28 {
		t.Fatal("synthesis constants drifted")
	}
	if PredictionEnergyNJ != 3.2 || AvoidedTransferEnergyNJ != 907 {
		t.Fatal("energy constants drifted")
	}
	if TPredMicros != 2.5 {
		t.Fatal("prediction latency drifted")
	}
}

// PredictCorrectRange, whenever it answers, gives PredictCorrect's
// answer for every RBER in its range: both ends and points between,
// on either side of the capability and across it, at the default
// floor and at floors below and at one half.
func TestPredictCorrectRangeAgrees(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, floor := range []float64{0.995, 0.5, 0.3} {
		a := DefaultAccuracyModel(nand.ECCCapabilityRBER)
		a.Floor = floor
		answered := 0
		for n := 0; n < 200000; n++ {
			lo := rng.Float64() * 2 * a.Capability
			hi := lo * (1 + rng.Float64()*0.01)
			if n%4 == 0 {
				hi = lo
			}
			u := rng.Float64()
			got, ok := a.PredictCorrectRange(lo, hi, u)
			if !ok {
				if lo == hi {
					t.Fatalf("floor %v: point range %v undecided", floor, lo)
				}
				continue
			}
			answered++
			for _, x := range []float64{lo, hi, lo + (hi-lo)*rng.Float64(), a.Capability} {
				if x < lo || x > hi {
					continue
				}
				if want := a.PredictCorrect(x, u); got != want {
					t.Fatalf("floor %v: range [%v, %v] u %v says %v, PredictCorrect(%v) says %v", floor, lo, hi, u, got, x, want)
				}
			}
		}
		if answered < 190000 {
			t.Errorf("floor %v: only %d of 200000 ranges decided", floor, answered)
		}
	}
}

// TestPredictCorrectRangeZeroAlloc is the runtime half of the
// //riflint:hotpath guard on PredictCorrectRange, which the SSD calls
// for every RP prediction.
func TestPredictCorrectRangeZeroAlloc(t *testing.T) {
	a := DefaultAccuracyModel(nand.ECCCapabilityRBER)
	n := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		if c, ok := a.PredictCorrectRange(0.0084, 0.00841, 0.7); c && ok {
			n++
		}
		if c, ok := a.PredictCorrectRange(0.0091, 0.0091, 0.999); c && ok {
			n++
		}
	}); allocs != 0 {
		t.Fatalf("PredictCorrectRange allocates %.1f times per call pair", allocs)
	}
}
