package ssd_test

// The open-loop host is package replay's: it drives the device's host
// port at trace arrival times. These tests pin the device's behaviour
// under it, so they sit beside the device but drive it through
// replay.Run.

import (
	"testing"

	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// openLoopConfig is the small device the open-loop tests replay into.
func openLoopConfig(scheme ssd.Scheme, pe int) ssd.Config {
	cfg := ssd.DefaultConfig(scheme, pe)
	cfg.Geometry.BlocksPerPlane = 256
	cfg.Geometry.PagesPerBlock = 128
	return cfg
}

// replayReqs replays reqs once, at their own timestamps, with cold data
// aged ageDays, through a ring of maxInFlight (0 = the default).
func replayReqs(t *testing.T, cfg ssd.Config, reqs []trace.Request, ageDays float64, maxInFlight int) *ssd.Metrics {
	t.Helper()
	src := replay.FromWorkload(trace.NewReplayer(reqs, ageDays), int64(len(reqs)))
	res, err := replay.Run(src, replay.Options{Config: cfg, MaxInFlight: maxInFlight})
	if err != nil {
		t.Fatal(err)
	}
	return res.Metrics
}

// burst returns n simultaneous two-page reads: the hostile input for
// admission control.
func burst(n int) []trace.Request {
	reqs := make([]trace.Request, n)
	for i := range reqs {
		reqs[i] = trace.Request{Op: trace.Read, LPN: int64(i * 4), Pages: 2}
	}
	return reqs
}

func TestOpenLoopHonorsArrivalTimes(t *testing.T) {
	// Widely spaced arrivals: each request should complete before the
	// next arrives, so read latency is the unloaded service time, far
	// below what a saturating closed loop produces.
	var reqs []trace.Request
	for i := 0; i < 50; i++ {
		reqs = append(reqs, trace.Request{
			At:    sim.Time(i) * 2 * sim.Millisecond,
			Op:    trace.Read,
			LPN:   int64(i * 64),
			Pages: 4,
		})
	}
	m := replayReqs(t, openLoopConfig(ssd.Zero, 0), reqs, 5, 0)
	if m.RequestsCompleted != 50 {
		t.Fatalf("completed %d", m.RequestsCompleted)
	}
	// Makespan is at least the last arrival.
	if m.Makespan < 49*2*sim.Millisecond {
		t.Fatalf("makespan %v ignored arrival times", m.Makespan)
	}
	// Unloaded read: sense + transfer + decode + host, well under 1 ms.
	if p99 := m.ReadLatencies.Percentile(99); p99 > 500 {
		t.Fatalf("unloaded p99 = %vus", p99)
	}
}

func TestOpenLoopBurstQueues(t *testing.T) {
	// All requests arrive at t=0: the open loop must still complete
	// them, and latencies now include queueing.
	var reqs []trace.Request
	for i := 0; i < 100; i++ {
		reqs = append(reqs, trace.Request{Op: trace.Read, LPN: int64(i * 4), Pages: 4})
	}
	m := replayReqs(t, openLoopConfig(ssd.Zero, 0), reqs, 5, 0)
	if m.RequestsCompleted != 100 {
		t.Fatalf("completed %d", m.RequestsCompleted)
	}
	if m.ReadLatencies.Percentile(99) <= m.ReadLatencies.Percentile(1) {
		t.Fatal("burst produced no queueing spread")
	}
}

func TestOpenLoopDeterministic(t *testing.T) {
	mk := func() *ssd.Metrics {
		var reqs []trace.Request
		for i := 0; i < 60; i++ {
			reqs = append(reqs, trace.Request{
				At: sim.Time(i) * 100 * sim.Microsecond, Op: trace.Read,
				LPN: int64(i * 16), Pages: 2,
			})
		}
		return replayReqs(t, openLoopConfig(ssd.RiF, 2000), reqs, 20, 0)
	}
	a, b := mk(), mk()
	if a.Makespan != b.Makespan || a.PagesRetried != b.PagesRetried {
		t.Fatal("open-loop runs diverged")
	}
}

func TestBoundedRingCapsInFlight(t *testing.T) {
	m := replayReqs(t, openLoopConfig(ssd.Zero, 0), burst(120), 5, 8)
	if m.RequestsCompleted != 120 {
		t.Fatalf("completed %d", m.RequestsCompleted)
	}
	if m.PeakInFlight > 8 {
		t.Fatalf("ring bound violated: peak %d > 8", m.PeakInFlight)
	}
	if m.HeldArrivals == 0 {
		t.Fatal("a t=0 burst through an 8-deep ring held no arrivals")
	}
}

// TestBoundedRingLatencyFromArrival pins that a held request's latency
// includes its head-of-line wait: under a burst, a tight ring must not
// report lower tail latency than a ring deeper than the burst, or
// saturation would be invisible in the sweep.
func TestBoundedRingLatencyFromArrival(t *testing.T) {
	bounded := replayReqs(t, openLoopConfig(ssd.Zero, 0), burst(100), 5, 4)
	unbounded := replayReqs(t, openLoopConfig(ssd.Zero, 0), burst(100), 5, 0)
	if unbounded.PeakInFlight <= 4 {
		t.Fatalf("burst never exceeded the bound unbounded: peak %d", unbounded.PeakInFlight)
	}
	bp99 := bounded.ReadLatencies.Percentile(99)
	up99 := unbounded.ReadLatencies.Percentile(99)
	if bp99 < up99*0.5 {
		t.Fatalf("bounded p99 %vus hides queueing (unbounded %vus)", bp99, up99)
	}
}

// TestOpenLoopSketchMatchesSample checks the open-loop host records
// every read in the device sketch. How close the sketch's quantiles sit
// to the exact ones is pinned by stats.TestSketchMatchesSampleQuantile.
func TestOpenLoopSketchMatchesSample(t *testing.T) {
	reqs := make([]trace.Request, 300)
	for i := range reqs {
		reqs[i] = trace.Request{
			At: sim.Time(i) * 30 * sim.Microsecond, Op: trace.Read,
			LPN: int64(i * 8), Pages: 2,
		}
	}
	m := replayReqs(t, openLoopConfig(ssd.RiF, 2000), reqs, 10, 64)
	if n := m.ReadLatencies.N(); n != int64(len(reqs)) {
		t.Fatalf("sketch saw %d reads, want %d", n, len(reqs))
	}
	if m.ReadLatencies.Min() <= 0 || m.ReadLatencies.Percentile(99) > m.ReadLatencies.Max() {
		t.Fatalf("implausible sketch: min %v p99 %v max %v",
			m.ReadLatencies.Min(), m.ReadLatencies.Percentile(99), m.ReadLatencies.Max())
	}
}

func TestOpenLoopFiniteWorkloadEndsRun(t *testing.T) {
	// Ask for far more requests than the stream holds: the run must
	// drain cleanly after the 25 real ones.
	src := replay.FromWorkload(trace.NewReplayer(burst(25), 5), 25)
	res, err := replay.Run(src, replay.Options{Config: openLoopConfig(ssd.Zero, 0), MaxRequests: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.RequestsCompleted != 25 {
		t.Fatalf("completed %d, want the stream's 25", res.Metrics.RequestsCompleted)
	}
}
