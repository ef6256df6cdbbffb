package ssd

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// chaosConfig is smallConfig plus an aggressive-but-survivable mix of
// every fault class.
func chaosConfig(scheme Scheme, pe int) Config {
	cfg := smallConfig(scheme, pe)
	cfg.Faults = faults.Config{
		TransientSenseRate: 0.05,
		StuckBlockRate:     0.10,
		DieDropoutRate:     0.10,
		ChannelCorruptRate: 0.05,
		MispredictRate:     0.10,
		DecodeTimeoutRate:  0.05,
	}
	return cfg
}

// TestEveryFaultClassDegradesGracefully is the acceptance test for
// the degradation ladder: with every fault class injected at once, no
// scheme's read path panics — uncorrectable reads surface as counted
// media errors and the run completes cleanly.
func TestEveryFaultClassDegradesGracefully(t *testing.T) {
	for _, scheme := range []Scheme{One, Sentinel, SWR, RPOnly, RiF} {
		t.Run(scheme.String(), func(t *testing.T) {
			m := run(t, chaosConfig(scheme, 2000), smallWorkload(t, "Ali124", 1), 600)
			if m.RequestsCompleted != 600 {
				t.Fatalf("completed %d of 600 requests", m.RequestsCompleted)
			}
			if m.Faults.Total() == 0 {
				t.Fatal("no faults injected at these rates")
			}
			if m.UnrecoveredPages == 0 || m.MediaErrorRequests == 0 {
				t.Fatalf("stuck blocks + dead dies produced no media errors: %+v", m.Faults)
			}
			// The confusion matrix must balance even with forced
			// mispredictions: every prediction lands in one quadrant.
			c := m.Confusion
			if got := c.TP + c.FP + c.FN + c.TN; got != m.Predictions {
				t.Fatalf("confusion matrix unbalanced: %d quadrant entries, %d predictions", got, m.Predictions)
			}
		})
	}
}

// TestInjectedUNCReadReturnsMediaError drives injected uncorrectable
// reads through the host port: every read must complete with
// MediaError set, never panic.
func TestInjectedUNCReadReturnsMediaError(t *testing.T) {
	cfg := smallConfig(SWR, 0)
	cfg.Faults = faults.Config{StuckBlockRate: 1} // every block grown bad
	w := smallWorkload(t, "Ali124", 1)
	s, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	const reads = 8
	var done []Completion
	s.OnComplete(func(c Completion) { done = append(done, c) })
	for i := 0; i < reads; i++ {
		s.Submit(trace.Request{Op: trace.Read, LPN: int64(i) * 16, Pages: 4}, 0, w, i)
	}
	m, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != reads {
		t.Fatalf("%d completions, want %d", len(done), reads)
	}
	for _, c := range done {
		if !c.MediaError {
			t.Fatalf("read %d completed without MediaError", c.Tag)
		}
	}
	if m.MediaErrorRequests != reads || m.UnrecoveredPages == 0 {
		t.Fatalf("media-error accounting: %+v", m)
	}
	if m.Faults.StuckPageReads != m.PageReads {
		t.Fatalf("%d stuck page reads of %d page reads, want all", m.Faults.StuckPageReads, m.PageReads)
	}
}

// TestDroppedWritesCompleteAndFailTheRun pins the unplaceable-write
// path: with every die down, each write the FTL cannot place still
// reaches the completion handler, is counted in Faults.DroppedWrites,
// and the run's Drain returns the FTL's error. The FTL places a write
// before the write cache sees it.
func TestDroppedWritesCompleteAndFailTheRun(t *testing.T) {
	cfg := smallConfig(RiF, 0)
	cfg.Faults = faults.Config{DieDropoutRate: 1}
	s, err := New(cfg, allocStubWorkload{})
	if err != nil {
		t.Fatal(err)
	}
	const writes = 4
	completed := 0
	s.OnComplete(func(Completion) { completed++ })
	// Each write covers one plane group, so it is one die command.
	planes := int64(cfg.Geometry.PlanesPerDie)
	for i := int64(0); i < writes; i++ {
		req := trace.Request{Op: trace.Write, LPN: i * planes, Pages: int(planes)}
		s.Submit(req, 0, allocStubWorkload{}, int(i))
	}
	_, err = s.Drain()
	if err == nil || !strings.Contains(err.Error(), "every die down") {
		t.Fatalf("Drain err = %v, want the every-die-down error", err)
	}
	if completed != writes {
		t.Fatalf("%d of %d writes completed", completed, writes)
	}
	// A failed Drain returns no Metrics; read the device's own.
	if got := s.m.Faults.DroppedWrites; got != writes {
		t.Fatalf("%d dropped writes, want %d", got, writes)
	}
}

// tracedRun is run with an obs.Tracer attached. It also returns the
// run's Chrome trace: every die, channel and ECC occupancy with its
// sim-time bounds, so two runs whose traces match byte for byte took
// the same path, which a latency sketch alone cannot show.
func tracedRun(t *testing.T, cfg Config, w Workload, n int) (*Metrics, []byte) {
	t.Helper()
	tr := obs.NewTracer(0)
	cfg.Trace = tr
	m := run(t, cfg, w, n)
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("tracer dropped %d spans; the comparison would miss them", d)
	}
	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	return m, b.Bytes()
}

// TestFaultRunsAreDeterministic pins the subsystem's headline
// guarantee: same seed + same fault config reproduces the run
// metric-for-metric and span-for-span.
func TestFaultRunsAreDeterministic(t *testing.T) {
	a, ta := tracedRun(t, chaosConfig(RiF, 1000), smallWorkload(t, "Ali124", 7), 400)
	b, tb := tracedRun(t, chaosConfig(RiF, 1000), smallWorkload(t, "Ali124", 7), 400)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed fault runs diverged:\n%+v\nvs\n%+v", a, b)
	}
	if !bytes.Equal(ta, tb) {
		t.Fatal("same-seed fault runs traced different spans")
	}
}

// TestDisabledFaultConfigChangesNothing pins the rate-zero no-draw
// property: a Faults config with no live class (even with non-rate
// fields set) leaves the run byte-identical to a fault-free one.
func TestDisabledFaultConfigChangesNothing(t *testing.T) {
	base := smallConfig(RiF, 2000)
	withCfg := smallConfig(RiF, 2000)
	withCfg.Faults = faults.Config{MaxSenseRetries: 5} // no rates -> disabled
	a, ta := tracedRun(t, base, smallWorkload(t, "Ali124", 3), 400)
	b, tb := tracedRun(t, withCfg, smallWorkload(t, "Ali124", 3), 400)
	if !reflect.DeepEqual(a.ReadLatencies, b.ReadLatencies) || a.Makespan != b.Makespan || !bytes.Equal(ta, tb) {
		t.Fatal("disabled fault config perturbed the run")
	}
	if a.Faults != (FaultMetrics{}) {
		t.Fatalf("fault-free run reported fault activity: %+v", a.Faults)
	}
}

// TestDieDropoutFailsOverWrites checks the FTL re-homes writes away
// from dead dies while reads of data stranded there surface as media
// errors.
func TestDieDropoutFailsOverWrites(t *testing.T) {
	cfg := smallConfig(One, 0)
	cfg.Faults = faults.Config{DieDropoutRate: 0.25}
	m := run(t, cfg, &cacheProbeWorkload{cold: 0}, 600)
	if m.Faults.DieFailovers == 0 {
		t.Fatal("no writes failed over with a quarter of the dies down")
	}
	if m.Faults.DieDropoutReads == 0 || m.MediaErrorRequests == 0 {
		t.Fatalf("dead-die reads did not surface: %+v", m.Faults)
	}
	if m.Faults.DroppedWrites != 0 {
		t.Fatalf("%d writes dropped despite live dies", m.Faults.DroppedWrites)
	}
}

// TestDeadDieReadsTimeOutInOrder pins the dead-die probe path: with
// every die down, each read's probe sense times out exactly tR after
// the read arrives and the read completes with MediaError set. The
// reads arrive a third of tR apart, so three probes are in flight at
// once and still time out in submission order, and every page
// submitted is counted unrecovered.
func TestDeadDieReadsTimeOutInOrder(t *testing.T) {
	cfg := smallConfig(RiF, 0)
	cfg.Faults = faults.Config{DieDropoutRate: 1}
	s, err := New(cfg, allocStubWorkload{})
	if err != nil {
		t.Fatal(err)
	}
	eng := s.Engine()
	tR := cfg.Timing.TR
	planes := cfg.Geometry.PlanesPerDie
	type done struct {
		tag   int
		at    sim.Time
		media bool
	}
	var got []done
	s.OnComplete(func(c Completion) { got = append(got, done{c.Tag, eng.Now(), c.MediaError}) })
	const reads = 12
	arrivals := make([]sim.Time, reads)
	pages := int64(0)
	for i := range reads {
		// Up to two plane groups, so some reads are two die commands.
		req := trace.Request{Op: trace.Read, LPN: int64(i * planes), Pages: 1 + i%(2*planes)}
		pages += int64(req.Pages)
		arrivals[i] = sim.Time(i) * tR / 3
		eng.At(arrivals[i], fire(func() { s.Submit(req, eng.Now(), allocStubWorkload{}, i) }))
	}
	m, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != reads {
		t.Fatalf("%d completions, want %d", len(got), reads)
	}
	for i, c := range got {
		if c.tag != i || c.at != arrivals[i]+tR || !c.media {
			t.Fatalf("completion %d: read %d at %v (media error %v), want read %d at %v with a media error",
				i, c.tag, c.at, c.media, i, arrivals[i]+tR)
		}
	}
	if m.UnrecoveredPages != pages || m.Faults.DieDropoutReads != pages {
		t.Fatalf("%d unrecovered pages and %d dead-die page reads, want %d of each",
			m.UnrecoveredPages, m.Faults.DieDropoutReads, pages)
	}
}

// TestStuckBlocksAreRetired checks grown-bad blocks are pulled from
// circulation once their reads exhaust the retry ladder.
func TestStuckBlocksAreRetired(t *testing.T) {
	cfg := smallConfig(SWR, 0)
	cfg.Faults = faults.Config{StuckBlockRate: 0.3}
	m := run(t, cfg, smallWorkload(t, "Ali124", 1), 600)
	if m.Faults.StuckPageReads == 0 || m.Faults.GrownBadBlocks == 0 {
		t.Fatalf("no retirements at 30%% stuck blocks: %+v", m.Faults)
	}
	if m.Faults.GrownBadBlocks > m.Faults.StuckPageReads {
		t.Fatalf("more retirements than stuck reads: %+v", m.Faults)
	}
}

// TestTransientSenseFaultsCostLatency checks injected sense glitches
// stretch the run instead of corrupting it.
func TestTransientSenseFaultsCostLatency(t *testing.T) {
	base := smallConfig(SWR, 1000)
	glitchy := smallConfig(SWR, 1000)
	glitchy.Faults = faults.Config{TransientSenseRate: 0.5}
	a := run(t, base, smallWorkload(t, "Ali124", 1), 400)
	b := run(t, glitchy, smallWorkload(t, "Ali124", 1), 400)
	if b.Faults.TransientSenseFaults == 0 {
		t.Fatal("no transient sense faults at rate 0.5")
	}
	if b.Makespan <= a.Makespan {
		t.Fatalf("re-senses did not cost time: %v vs %v", b.Makespan, a.Makespan)
	}
	if b.MediaErrorRequests != a.MediaErrorRequests {
		t.Fatal("transient faults must not change read outcomes")
	}
}

// TestChannelCorruptionRetransfers checks corrupted transfers re-send
// from the page buffer and the channel still quiesces at drain.
func TestChannelCorruptionRetransfers(t *testing.T) {
	cfg := smallConfig(One, 1000)
	cfg.Faults = faults.Config{ChannelCorruptRate: 0.2}
	m := run(t, cfg, smallWorkload(t, "Ali124", 1), 400)
	if m.Faults.ChannelCorruptions == 0 {
		t.Fatal("no corruptions at rate 0.2")
	}
	if m.RequestsCompleted != 400 {
		t.Fatalf("corruption lost requests: %d of 400", m.RequestsCompleted)
	}
}

// TestForcedMispredictionsPerturbRP checks the injector inverts RP
// outputs and the accounting still balances.
func TestForcedMispredictionsPerturbRP(t *testing.T) {
	cfg := smallConfig(RiF, 1000)
	cfg.Faults = faults.Config{MispredictRate: 0.5}
	m := run(t, cfg, smallWorkload(t, "Ali124", 1), 400)
	if m.Faults.ForcedMispredictions == 0 {
		t.Fatal("no forced mispredictions at rate 0.5")
	}
	c := m.Confusion
	if got := c.TP + c.FP + c.FN + c.TN; got != m.Predictions {
		t.Fatalf("confusion matrix unbalanced under forcing: %d vs %d", got, m.Predictions)
	}
}

// TestDecodeTimeoutsEnterRetryLadder checks timed-out decodes ride
// the scheme's normal retry path.
func TestDecodeTimeoutsEnterRetryLadder(t *testing.T) {
	cfg := smallConfig(SWR, 0) // wear 0: retries come only from injection
	cfg.Faults = faults.Config{DecodeTimeoutRate: 0.2}
	m := run(t, cfg, smallWorkload(t, "Ali124", 1), 400)
	if m.Faults.DecodeTimeouts == 0 {
		t.Fatal("no decode timeouts at rate 0.2")
	}
	if m.PagesRetried == 0 || m.RetryRounds == 0 {
		t.Fatalf("timeouts did not trigger retries: %+v", m)
	}
	// At wear 0 the only way a page stays unrecovered is timing out
	// every round of the ladder; most must recover earlier.
	if m.UnrecoveredPages*10 > m.Faults.DecodeTimeouts {
		t.Fatalf("%d unrecovered pages from %d timeouts: ladder not recovering",
			m.UnrecoveredPages, m.Faults.DecodeTimeouts)
	}
}

// TestUnknownSchemeRejectedByValidate pins the graceful replacement
// of the old read-path panic: a bad scheme is a config error at New.
func TestUnknownSchemeRejectedByValidate(t *testing.T) {
	cfg := smallConfig(RiF, 0)
	cfg.Scheme = Scheme(99)
	if _, err := New(cfg, &cacheProbeWorkload{}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}
