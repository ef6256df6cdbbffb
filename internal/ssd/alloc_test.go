package ssd

import (
	"testing"

	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/trace"
)

// allocStubWorkload satisfies Workload without pulling in a trace
// generator; predictFail never touches the workload.
type allocStubWorkload struct{}

func (allocStubWorkload) Next() trace.Request          { return trace.Request{} }
func (allocStubWorkload) InitialAgeDays(int64) float64 { return 0 }

// TestPredictFailZeroAlloc is the runtime half of the //riflint:hotpath
// guard on predictFail: one prediction per read in the RiF read path,
// zero heap allocations. If riflint's static check and this pin ever
// disagree, one of them has a bug.
func TestPredictFailZeroAlloc(t *testing.T) {
	s, err := New(DefaultConfig(RiF, 2000), allocStubWorkload{})
	if err != nil {
		t.Fatal(err)
	}
	fail := pageView{first: exactly(1e-3), fails: false}
	pass := pageView{first: exactly(5e-4), fails: true}
	if allocs := testing.AllocsPerRun(1000, func() {
		s.predictFail(&fail)
		s.predictFail(&pass)
	}); allocs != 0 {
		t.Fatalf("predictFail allocates %.1f times per call pair; the hot path must be allocation-free", allocs)
	}
}

// TestNoteSenseZeroAlloc is the runtime half of the //riflint:hotpath
// guard on noteSense: the per-read disturb bookkeeping and reclaim
// threshold check run on every array sense and must not allocate. The
// reclaim seam is stubbed so the (cold, allocating) migration path
// behind a threshold crossing stays out of the measurement — riflint's
// static check stops at the same boundary.
func TestNoteSenseZeroAlloc(t *testing.T) {
	s, err := New(DefaultConfig(RiF, 1000), allocStubWorkload{})
	if err != nil {
		t.Fatal(err)
	}
	crossings := 0
	s.reclaim = func(bid int) {
		crossings++
		s.ftl.blocks.at(bid).reads = 0
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		s.noteSense(1)
		s.noteSense(2)
	}); allocs != 0 {
		t.Fatalf("noteSense allocates %.1f times per call pair; the per-sense hot path must be allocation-free", allocs)
	}
}

// steadyDevice builds a device for a request-path allocation pin and
// a cycle of requests of one kind drawn from a real workload, so the
// pages carry realistic retention ages and, at 2K P/E, ride the retry
// ladders. The device is the default one with a live metrics
// registry, which the run touches only at drain: its latencies go to
// the fixed-memory Metrics.ReadLatencies sketch alone.
func steadyDevice(t *testing.T, cfg Config, op trace.Op) (*SSD, func()) {
	t.Helper()
	cfg.Obs = obs.NewRegistry()
	w := smallWorkload(t, "Ali2", 1)
	var reqs []trace.Request
	for len(reqs) < 256 {
		if r := w.Next(); r.Op == op {
			reqs = append(reqs, r)
		}
	}
	s, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	one := func() {
		s.Submit(reqs[i%len(reqs)], s.eng.Now(), w, 0)
		s.eng.Run()
		i++
	}
	// Warm-up: two passes over the cycle fill every record pool,
	// station free list and queue to its high-water mark.
	for range 2 * len(reqs) {
		one()
	}
	return s, one
}

// TestReadRequestZeroAlloc is the runtime half of the //riflint:hotpath
// guard on the read path — resolvePages, every scheme's read flow, the
// die and channel finish handlers and recordCompletion: once the pools
// are warm, a host read request allocates nothing from admission to
// completion, retries included.
func TestReadRequestZeroAlloc(t *testing.T) {
	for _, sc := range AllSchemes() {
		t.Run(sc.String(), func(t *testing.T) {
			s, one := steadyDevice(t, smallConfig(sc, 2000), trace.Read)
			if allocs := testing.AllocsPerRun(500, one); allocs != 0 {
				t.Fatalf("a steady-state read request allocates %.1f times; the request path must be allocation-free", allocs)
			}
			if sc != Zero && s.m.RetryRounds == 0 {
				t.Fatal("no retry round ran; the pin does not cover the retry ladder")
			}
			if n := s.m.ReadLatencies.N(); n == 0 || n != int64(s.m.RequestsCompleted) {
				t.Fatalf("sketch saw %d of %d reads; the pin does not cover latency recording", n, s.m.RequestsCompleted)
			}
		})
	}
}

// TestCachedWriteZeroAlloc pins the cached write path the same way:
// buffer grant, host transfer, completion and the background flush.
func TestCachedWriteZeroAlloc(t *testing.T) {
	_, one := steadyDevice(t, smallConfig(RiF, 2000), trace.Write)
	if allocs := testing.AllocsPerRun(500, one); allocs != 0 {
		t.Fatalf("a steady-state cached write allocates %.1f times; the write path must be allocation-free", allocs)
	}
}

// TestGCWriteZeroAlloc extends the cached-write pin to the FTL's
// background work. On a device small enough that every pass over the
// cycle collects garbage and crosses the read-reclaim threshold, a
// steady-state request still allocates nothing: victim choice,
// relocation, the erase back onto the free list and reclaim's
// migration included.
func TestGCWriteZeroAlloc(t *testing.T) {
	cfg := smallConfig(RiF, 0)
	// 4 planes with 8 write-region blocks of 8 pages each.
	cfg.Geometry = nand.Geometry{Channels: 2, DiesPerChan: 1, PlanesPerDie: 2,
		BlocksPerPlane: 16, PagesPerBlock: 8, PageBytes: 16 * 1024}
	cfg.ReadReclaimThreshold = 8
	s, err := New(cfg, allocStubWorkload{})
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite 48 live pages, two at a time, and read each pair back.
	var reqs []trace.Request
	for lpn := int64(0); lpn < 48; lpn += 2 {
		reqs = append(reqs, trace.Request{Op: trace.Write, LPN: lpn, Pages: 2},
			trace.Request{Op: trace.Read, LPN: lpn, Pages: 2})
	}
	i := 0
	one := func() {
		s.Submit(reqs[i%len(reqs)], s.eng.Now(), allocStubWorkload{}, 0)
		s.eng.Run()
		i++
	}
	// Warm-up: enough passes to open every write-region block once.
	for range 20 * len(reqs) {
		one()
	}
	gcRuns, _ := s.ftl.GCStats()
	reclaims := s.m.ReadReclaims
	if allocs := testing.AllocsPerRun(500, one); allocs != 0 {
		t.Fatalf("a steady-state request with GC and read-reclaim allocates %.1f times; the FTL must be allocation-free", allocs)
	}
	if runs, _ := s.ftl.GCStats(); runs == gcRuns {
		t.Fatal("no garbage collection ran in the measured window; the pin does not cover GC")
	}
	if s.m.ReadReclaims == reclaims {
		t.Fatal("no read-reclaim ran in the measured window; the pin does not cover reclaim")
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestRunQueuesRequestZeroAlloc pins the closed-loop host on the port:
// once the pools are warm, issuing one queue request, serving it and
// crediting its completion to the queue allocates nothing.
func TestRunQueuesRequestZeroAlloc(t *testing.T) {
	s, _ := steadyDevice(t, smallConfig(RiF, 2000), trace.Read)
	l := s.closedLoop([]HostQueue{{Workload: smallWorkload(t, "Ali124", 2), Depth: 1}})
	one := func() {
		l.remaining[0] = 1
		l.issue(0)
		s.eng.Run()
	}
	for range 512 {
		one()
	}
	if allocs := testing.AllocsPerRun(500, one); allocs != 0 {
		t.Fatalf("a steady-state queue request allocates %.1f times; the closed-loop host must be allocation-free", allocs)
	}
	if q := &l.perQueue[0]; q.RequestsCompleted != 512+501 || q.ReadLatencies.N() == 0 {
		t.Fatalf("queue credited %d requests, %d reads; the pin does not cover the completion handler",
			q.RequestsCompleted, q.ReadLatencies.N())
	}
}
