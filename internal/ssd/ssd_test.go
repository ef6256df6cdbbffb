package ssd

import (
	"testing"

	"repro/internal/nand"
	"repro/internal/trace"
)

// smallConfig shrinks the array so end-to-end runs stay fast while
// keeping the Table I channel/die topology.
func smallConfig(scheme Scheme, pe int) Config {
	cfg := DefaultConfig(scheme, pe)
	cfg.Geometry.BlocksPerPlane = 256
	cfg.Geometry.PagesPerBlock = 128
	cfg.QueueDepth = 64
	return cfg
}

// smallWorkload shrinks the footprint to fit smallConfig's pre-fill
// region.
func smallWorkload(t *testing.T, name string, seed uint64) *trace.Generator {
	t.Helper()
	spec, err := trace.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	spec.FootprintPages = 1 << 17
	g, err := trace.NewGenerator(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func run(t *testing.T, cfg Config, w Workload, n int) *Metrics {
	t.Helper()
	s, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig(RiF, 0)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*Config){
		func(c *Config) { c.Geometry.Channels = 0 },
		func(c *Config) { c.Timing.TR = 0 },
		func(c *Config) { c.Timing.TDMAPage = 0 },
		func(c *Config) { c.PECycles = -1 },
		func(c *Config) { c.QueueDepth = 0 },
		func(c *Config) { c.ECCBufferSlots = 0 },
		func(c *Config) { c.SentinelExtraReadProb = 2 },
		func(c *Config) { c.MaxRetryRounds = 0 },
		func(c *Config) { c.WriteCachePages = 0 },
	}
	for i, mut := range muts {
		c := DefaultConfig(RiF, 0)
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if _, err := New(good, nil); err == nil {
		t.Error("nil workload accepted")
	}
}

func TestDefaultConfigMatchesTableI(t *testing.T) {
	cfg := DefaultConfig(RiF, 1000)
	tm := cfg.Timing
	if tm.TR.Microseconds() != 40 || tm.TProg.Microseconds() != 400 {
		t.Fatalf("tR/tPROG: %v/%v", tm.TR, tm.TProg)
	}
	if tm.TErase.Milliseconds() != 3.5 {
		t.Fatalf("tBERS: %v", tm.TErase)
	}
	if tm.TPred.Microseconds() != 2.5 {
		t.Fatalf("tPRED: %v", tm.TPred)
	}
	// Channel: 16 KiB in ~13 us is 1.2 GB/s.
	bw := 16384.0 / tm.TDMAPage.Seconds() / 1e9
	if bw < 1.15 || bw > 1.25 {
		t.Fatalf("channel bandwidth %v GB/s", bw)
	}
	// Host: 16 KiB in 2 us is ~8 GB/s.
	hbw := 16384.0 / tm.THostPage.Seconds() / 1e9
	if hbw < 7.5 || hbw > 8.5 {
		t.Fatalf("host bandwidth %v GB/s", hbw)
	}
}

func TestSchemeNames(t *testing.T) {
	want := map[Scheme]string{
		Zero: "SSDzero", One: "SSDone", Sentinel: "SENC",
		SWR: "SWR", SWRPlus: "SWR+", RPOnly: "RPSSD", RiF: "RiFSSD",
	}
	for sc, name := range want {
		if sc.String() != name {
			t.Errorf("%d: %q", sc, sc.String())
		}
	}
	if len(AllSchemes()) != 7 {
		t.Fatal("AllSchemes wrong length")
	}
}

func TestRunCompletesAllRequests(t *testing.T) {
	m := run(t, smallConfig(RiF, 1000), smallWorkload(t, "Ali124", 1), 500)
	if m.RequestsCompleted != 500 {
		t.Fatalf("completed %d/500", m.RequestsCompleted)
	}
	if m.BytesRead == 0 || m.Makespan <= 0 {
		t.Fatalf("degenerate run: %+v", m)
	}
	if m.ReadLatencies.N() == 0 {
		t.Fatal("no read latencies recorded")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := run(t, smallConfig(RiF, 2000), smallWorkload(t, "Sys0", 5), 300)
	b := run(t, smallConfig(RiF, 2000), smallWorkload(t, "Sys0", 5), 300)
	if a.Makespan != b.Makespan || a.BytesRead != b.BytesRead ||
		a.PagesRetried != b.PagesRetried || a.Mispredictions != b.Mispredictions {
		t.Fatalf("runs diverged:\n%v\n%v", a, b)
	}
}

func TestSSDzeroNeverRetries(t *testing.T) {
	m := run(t, smallConfig(Zero, 2000), smallWorkload(t, "Ali124", 1), 300)
	if m.PagesRetried != 0 || m.Channels.Uncor != 0 || m.Channels.ECCWait != 0 {
		t.Fatalf("SSDzero retried: %v", m)
	}
}

func TestRetryRateGrowsWithWear(t *testing.T) {
	w := func() Workload { return smallWorkload(t, "Ali124", 1) }
	r0 := run(t, smallConfig(One, 0), w(), 300).RetryRate()
	r1 := run(t, smallConfig(One, 1000), w(), 300).RetryRate()
	r2 := run(t, smallConfig(One, 2000), w(), 300).RetryRate()
	if !(r0 < r1 && r1 < r2) {
		t.Fatalf("retry rate not increasing: %v %v %v", r0, r1, r2)
	}
	if r2 < 0.3 {
		t.Fatalf("retry rate at 2K = %v, implausibly low for a cold-read-heavy trace", r2)
	}
}

func TestSchemeBandwidthOrderingAt2K(t *testing.T) {
	// The headline Fig. 17 ordering at heavy wear: SENC is slowest,
	// SWR and SSDone close, SWR+ better, RiF near SSDzero.
	bw := map[Scheme]float64{}
	for _, sc := range AllSchemes() {
		bw[sc] = run(t, smallConfig(sc, 2000), smallWorkload(t, "Ali124", 1), 600).Bandwidth()
	}
	if !(bw[Sentinel] < bw[SWR] && bw[SWR] < bw[SWRPlus] && bw[SWRPlus] < bw[RiF]) {
		t.Fatalf("ordering violated: %v", bw)
	}
	if bw[RiF] < bw[Zero]*0.95 {
		t.Fatalf("RiF %v far from SSDzero %v (paper: within 1.8%%)", bw[RiF], bw[Zero])
	}
	// Paper: +72.1% average over SENC at 2K; the most read-intensive
	// trace must show at least that order of improvement.
	if gain := bw[RiF]/bw[Sentinel] - 1; gain < 0.4 {
		t.Fatalf("RiF over SENC = %.0f%%, want large", 100*gain)
	}
}

func TestRPSSDRemovesECCWaitButNotUncor(t *testing.T) {
	// §VI-B: "While RPSSD effectively reduces wasted channel bandwidth
	// from ECCWAIT, it still suffers unnecessary data transfers."
	one := run(t, smallConfig(One, 2000), smallWorkload(t, "Ali121", 1), 600)
	rp := run(t, smallConfig(RPOnly, 2000), smallWorkload(t, "Ali121", 1), 600)
	_, _, oneUncor, oneWait := one.Channels.Fractions()
	_, _, rpUncor, rpWait := rp.Channels.Fractions()
	if rpWait > oneWait/2 {
		t.Fatalf("RPSSD eccwait %v not much below SSDone %v", rpWait, oneWait)
	}
	if rpUncor < oneUncor*0.5 {
		t.Fatalf("RPSSD uncor %v suspiciously low vs SSDone %v", rpUncor, oneUncor)
	}
}

func TestRiFKeepsChannelClean(t *testing.T) {
	m := run(t, smallConfig(RiF, 2000), smallWorkload(t, "Ali121", 1), 600)
	_, _, uncor, wait := m.Channels.Fractions()
	if uncor > 0.03 {
		t.Fatalf("RiF uncor fraction %v (paper: 1.8%% at 2K)", uncor)
	}
	if wait > 0.03 {
		t.Fatalf("RiF eccwait fraction %v", wait)
	}
	if m.AvoidedTransfers == 0 {
		t.Fatal("RiF avoided no transfers at 2K")
	}
	if m.EnergyDeltaNJ() >= 0 {
		t.Fatalf("RiF energy delta %v nJ, want net saving at 2K", m.EnergyDeltaNJ())
	}
}

func TestSentinelExtraReads(t *testing.T) {
	m := run(t, smallConfig(Sentinel, 2000), smallWorkload(t, "Ali124", 1), 400)
	if m.SentinelExtraReads == 0 {
		t.Fatal("Sentinel never paid its extra off-chip read")
	}
	if m.SentinelExtraReads > m.PagesRetried {
		t.Fatalf("extra reads %d exceed retried pages %d", m.SentinelExtraReads, m.PagesRetried)
	}
}

func TestPredictionAccuracyNearCalibration(t *testing.T) {
	m := run(t, smallConfig(RiF, 2000), smallWorkload(t, "Sys1", 3), 600)
	if m.Predictions == 0 {
		t.Fatal("no predictions recorded")
	}
	if acc := m.PredictionAccuracy(); acc < 0.95 {
		t.Fatalf("realized prediction accuracy %v", acc)
	}
}

func TestTailLatencyOrdering(t *testing.T) {
	// Fig. 19: RiF's read tail is far shorter than SENC's at wear.
	senc := run(t, smallConfig(Sentinel, 2000), smallWorkload(t, "Ali124", 1), 800)
	rif := run(t, smallConfig(RiF, 2000), smallWorkload(t, "Ali124", 1), 800)
	sp99 := senc.ReadLatencies.Percentile(99)
	rp99 := rif.ReadLatencies.Percentile(99)
	if rp99 >= sp99 {
		t.Fatalf("RiF p99 %vus not below SENC %vus", rp99, sp99)
	}
}

func TestWriteHeavyWorkload(t *testing.T) {
	m := run(t, smallConfig(RiF, 1000), smallWorkload(t, "Ali2", 1), 400)
	if m.BytesWritten == 0 {
		t.Fatal("write-heavy trace wrote nothing")
	}
	if m.BytesWritten < m.BytesRead {
		t.Fatalf("Ali2 should be write-dominated: R=%d W=%d", m.BytesRead, m.BytesWritten)
	}
}

func TestChannelFractionsConsistent(t *testing.T) {
	for _, sc := range []Scheme{Zero, One, RiF} {
		m := run(t, smallConfig(sc, 1000), smallWorkload(t, "Sys0", 2), 300)
		idle, cor, uncor, wait := m.Channels.Fractions()
		sum := idle + cor + uncor + wait
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("%v: fractions sum %v", sc, sum)
		}
	}
}

func TestMetricsCounters(t *testing.T) {
	m := run(t, smallConfig(One, 2000), smallWorkload(t, "Ali124", 1), 300)
	if m.PageReads == 0 {
		t.Fatal("no page reads")
	}
	if m.PagesRetried > m.PageReads {
		t.Fatalf("retried %d > read %d", m.PagesRetried, m.PageReads)
	}
	if m.UnrecoveredPages != 0 {
		t.Fatalf("unrecovered pages: %d (ideal NRR=1 retry must recover)", m.UnrecoveredPages)
	}
	if m.RetryRounds == 0 {
		t.Fatal("no retry rounds at 2K")
	}
}

func TestRunRejectsBadCount(t *testing.T) {
	s, err := New(smallConfig(Zero, 0), smallWorkload(t, "Sys0", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0); err == nil {
		t.Fatal("Run(0) accepted")
	}
}

func TestSplitRequestGrouping(t *testing.T) {
	s, err := New(smallConfig(Zero, 0), smallWorkload(t, "Sys0", 1))
	if err != nil {
		t.Fatal(err)
	}
	// 10 pages starting at lpn 2: groups [2,3], [4..7], [8..11].
	var cmds []dieCommand
	for lpn, remaining := int64(2), 10; remaining > 0; {
		cmd := s.commandAt(lpn, remaining)
		cmds = append(cmds, cmd)
		lpn += int64(cmd.n)
		remaining -= cmd.n
	}
	if len(cmds) != 3 {
		t.Fatalf("%d commands", len(cmds))
	}
	if cmds[0].n != 2 || cmds[1].n != 4 || cmds[2].n != 4 {
		t.Fatalf("group sizes: %d %d %d", cmds[0].n, cmds[1].n, cmds[2].n)
	}
	// Every command stays on one die.
	for _, cmd := range cmds {
		first := s.ftl.PlaneIndexOf(cmd.lpn) / s.cfg.Geometry.PlanesPerDie
		for lpn := cmd.lpn; lpn < cmd.lpn+int64(cmd.n); lpn++ {
			if s.ftl.PlaneIndexOf(lpn)/s.cfg.Geometry.PlanesPerDie != first {
				t.Fatalf("command %+v spans dies", cmd)
			}
		}
	}
}

func TestVrefModeForScheme(t *testing.T) {
	if vrefModeForScheme(SWRPlus) != nand.TrackedVref {
		t.Fatal("SWR+ must read at tracked VREF")
	}
	for _, sc := range []Scheme{Zero, One, Sentinel, SWR, RPOnly, RiF} {
		if vrefModeForScheme(sc) != nand.DefaultVref {
			t.Fatalf("%v first-read mode wrong", sc)
		}
	}
}

func TestSecondCheckReducesUncorAtExtremeWear(t *testing.T) {
	// At 3K P/E with month-old data, some adjusted-VREF re-reads stay
	// uncorrectable; the footnote-4 second check keeps part of them
	// off the channel.
	mk := func(second bool) *Metrics {
		cfg := smallConfig(RiF, 3000)
		cfg.RiFSecondCheck = second
		return run(t, cfg, smallWorkload(t, "Ali124", 1), 400)
	}
	without := mk(false)
	with := mk(true)
	if with.AvoidedTransfers < without.AvoidedTransfers {
		t.Fatalf("second check avoided fewer transfers: %d vs %d",
			with.AvoidedTransfers, without.AvoidedTransfers)
	}
	if with.Channels.Uncor > without.Channels.Uncor {
		t.Fatalf("second check increased uncor channel time: %v vs %v",
			with.Channels.Uncor, without.Channels.Uncor)
	}
}

func TestSecondCheckNoEffectAtLowWear(t *testing.T) {
	// When every re-read decodes (the common case), the second check
	// must not change behaviour beyond its tPRED cost.
	mk := func(second bool) *Metrics {
		cfg := smallConfig(RiF, 1000)
		cfg.RiFSecondCheck = second
		return run(t, cfg, smallWorkload(t, "Sys0", 2), 300)
	}
	without := mk(false)
	with := mk(true)
	if with.Channels.Uncor != without.Channels.Uncor {
		t.Fatalf("second check altered uncor at low wear")
	}
	if float64(with.Makespan) > float64(without.Makespan)*1.05 {
		t.Fatalf("second check cost too much: %v vs %v", with.Makespan, without.Makespan)
	}
}

func TestSchemeByName(t *testing.T) {
	for _, s := range AllSchemes() {
		got, err := SchemeByName(s.String())
		if err != nil || got != s {
			t.Fatalf("round trip %v: %v %v", s, got, err)
		}
	}
	if got, err := SchemeByName("rifssd"); err != nil || got != RiF {
		t.Fatalf("case-insensitive lookup: %v %v", got, err)
	}
	if _, err := SchemeByName("nope"); err == nil {
		t.Fatal("unknown scheme resolved")
	}
}
