package ssd

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// burst returns n simultaneous single-page reads: the hostile input
// for admission control.
func burst(n int) []trace.Request {
	reqs := make([]trace.Request, n)
	for i := range reqs {
		reqs[i] = trace.Request{Op: trace.Read, LPN: int64(i * 4), Pages: 2}
	}
	return reqs
}

func TestBoundedRingCapsInFlight(t *testing.T) {
	cfg := smallConfig(Zero, 0)
	cfg.OpenLoop = true
	cfg.MaxInFlight = 8
	m := run(t, cfg, trace.NewReplayer(burst(120), 5), 120)
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
// report lower tail latency than unbounded admission, or saturation
// would be invisible in the sweep.
func TestBoundedRingLatencyFromArrival(t *testing.T) {
	mk := func(bound int) *Metrics {
		cfg := smallConfig(Zero, 0)
		cfg.OpenLoop = true
		cfg.MaxInFlight = bound
		return run(t, cfg, trace.NewReplayer(burst(100), 5), 100)
	}
	bounded := mk(4)
	unbounded := mk(0)
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
	cfg := smallConfig(RiF, 2000)
	cfg.OpenLoop = true
	cfg.MaxInFlight = 64
	m := run(t, cfg, trace.NewReplayer(reqs, 10), 300)
	if n := m.ReadLatencies.N(); n != int64(len(reqs)) {
		t.Fatalf("sketch saw %d reads, want %d", n, len(reqs))
	}
	if m.ReadLatencies.Min() <= 0 || m.ReadLatencies.Percentile(99) > m.ReadLatencies.Max() {
		t.Fatalf("implausible sketch: min %v p99 %v max %v",
			m.ReadLatencies.Min(), m.ReadLatencies.Percentile(99), m.ReadLatencies.Max())
	}
}

// finiteReplayer serves a fixed request slice once, then reports
// exhaustion — the shape of a streamed trace file.
type finiteReplayer struct {
	reqs []trace.Request
	next int
}

func (f *finiteReplayer) Next() trace.Request {
	r := f.reqs[f.next]
	f.next++
	return r
}
func (f *finiteReplayer) InitialAgeDays(int64) float64 { return 5 }
func (f *finiteReplayer) Exhausted() bool              { return f.next >= len(f.reqs) }

func TestOpenLoopFiniteWorkloadEndsRun(t *testing.T) {
	cfg := smallConfig(Zero, 0)
	cfg.OpenLoop = true
	s, err := New(cfg, &finiteReplayer{reqs: burst(25)})
	if err != nil {
		t.Fatal(err)
	}
	// Ask for far more requests than the stream holds: the run must
	// drain cleanly after the 25 real ones.
	m, err := s.Run(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if m.RequestsCompleted != 25 {
		t.Fatalf("completed %d, want the stream's 25", m.RequestsCompleted)
	}
}

func TestValidateHostConfigConflicts(t *testing.T) {
	base := smallConfig(Zero, 0)

	neg := base
	neg.OpenLoop = true
	neg.MaxInFlight = -1
	if err := neg.Validate(); err == nil {
		t.Fatal("negative MaxInFlight validated")
	}

	closed := base
	closed.MaxInFlight = 16 // open-loop knob on a closed-loop host
	err := closed.Validate()
	if err == nil {
		t.Fatal("MaxInFlight without OpenLoop validated")
	}
	if !strings.Contains(err.Error(), "OpenLoop") {
		t.Fatalf("conflict error not actionable: %v", err)
	}

	open := base
	open.OpenLoop = true
	open.MaxInFlight = 16
	if err := open.Validate(); err != nil {
		t.Fatalf("valid bounded open loop rejected: %v", err)
	}
}

func TestRunQueuesRejectsOpenLoop(t *testing.T) {
	cfg := smallConfig(Zero, 0)
	cfg.OpenLoop = true
	s, err := New(cfg, trace.NewReplayer(burst(4), 5))
	if err != nil {
		t.Fatal(err)
	}
	q := []HostQueue{{Workload: trace.NewReplayer(burst(4), 5), Depth: 2}}
	if _, _, err := s.RunQueues(q, 4); err == nil {
		t.Fatal("multi-queue host accepted an open-loop config")
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
