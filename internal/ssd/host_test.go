package ssd

import (
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

func TestRunQueuesBasic(t *testing.T) {
	cfg := smallConfig(RiF, 1000)
	s, err := New(cfg, smallWorkload(t, "Ali124", 1))
	if err != nil {
		t.Fatal(err)
	}
	queues := []HostQueue{
		{Workload: smallWorkload(t, "Ali124", 2), Depth: 32},
		{Workload: smallWorkload(t, "Ali2", 3), Depth: 32},
	}
	m, perQueue, err := s.RunQueues(queues, 200)
	if err != nil {
		t.Fatal(err)
	}
	if m.RequestsCompleted != 400 {
		t.Fatalf("completed %d, want 400", m.RequestsCompleted)
	}
	if len(perQueue) != 2 {
		t.Fatalf("%d queue reports", len(perQueue))
	}
	for qi, q := range perQueue {
		if q.RequestsCompleted != 200 {
			t.Fatalf("queue %d completed %d", qi, q.RequestsCompleted)
		}
	}
	// The read-heavy queue must carry most of the read bytes; the
	// write-heavy queue most of the write bytes.
	if perQueue[0].BytesRead <= perQueue[1].BytesRead {
		t.Fatal("read-heavy queue read fewer bytes than the write-heavy one")
	}
	if perQueue[0].BytesWritten >= perQueue[1].BytesWritten {
		t.Fatal("write-heavy queue wrote fewer bytes than the read-heavy one")
	}
	// Per-queue bytes sum to the device totals.
	if perQueue[0].BytesRead+perQueue[1].BytesRead != m.BytesRead {
		t.Fatal("per-queue read bytes do not sum")
	}
}

// TestRunQueuesRecordsEveryRead checks the multi-queue host records
// each read once device-wide, in Metrics.ReadLatencies, as many as the
// per-queue sketches hold, and that the registry's
// ssd_read_latency_us is folded from that sketch at drain.
func TestRunQueuesRecordsEveryRead(t *testing.T) {
	cfg := smallConfig(RiF, 1000)
	cfg.Obs = obs.NewRegistry()
	s, err := New(cfg, smallWorkload(t, "Ali124", 1))
	if err != nil {
		t.Fatal(err)
	}
	queues := []HostQueue{
		{Workload: notFolded{smallWorkload(t, "Ali124", 2), t, cfg.Obs}, Depth: 16},
		{Workload: smallWorkload(t, "Ali2", 3), Depth: 16},
	}
	m, perQueue, err := s.RunQueues(queues, 150)
	if err != nil {
		t.Fatal(err)
	}
	var reads int64
	for _, q := range perQueue {
		reads += q.ReadLatencies.N()
	}
	if reads == 0 {
		t.Fatal("no reads completed")
	}
	if got := m.ReadLatencies.N(); got != reads {
		t.Fatalf("device sketch n = %d, per-queue sketches n = %d", got, reads)
	}
	checkFolded(t, cfg.Obs, m)
}

// notFolded is a workload that fails the test if the registry holds a
// read-latency histogram while the run still pulls requests: nothing
// in the device streams into obs, it folds at drain.
type notFolded struct {
	Workload
	t   *testing.T
	reg *obs.Registry
}

func (w notFolded) Next() trace.Request {
	if _, ok := w.reg.Snapshot().Histograms["ssd_read_latency_us"]; ok {
		w.t.Fatal("ssd_read_latency_us is in the registry before drain")
	}
	return w.Workload.Next()
}

// checkFolded checks the registry's ssd_read_latency_us after drain:
// merging is exact, so its count and quantiles are ReadLatencies' own.
func checkFolded(t *testing.T, reg *obs.Registry, m *Metrics) {
	t.Helper()
	h, ok := reg.Snapshot().Histograms["ssd_read_latency_us"]
	if !ok {
		t.Fatal("ssd_read_latency_us not folded at drain")
	}
	l := &m.ReadLatencies
	if h.Count != l.N() || h.P50 != l.Quantile(0.5) || h.P99 != l.Quantile(0.99) {
		t.Fatalf("folded n=%d p50=%v p99=%v, ReadLatencies n=%d p50=%v p99=%v",
			h.Count, h.P50, h.P99, l.N(), l.Quantile(0.5), l.Quantile(0.99))
	}
}

func TestRunQueuesValidation(t *testing.T) {
	s, err := New(smallConfig(Zero, 0), smallWorkload(t, "Sys0", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RunQueues(nil, 10); err == nil {
		t.Fatal("empty queue list accepted")
	}
	if _, _, err := s.RunQueues([]HostQueue{{Workload: nil}}, 10); err == nil {
		t.Fatal("nil workload accepted")
	}
	s2, _ := New(smallConfig(Zero, 0), smallWorkload(t, "Sys0", 1))
	if _, _, err := s2.RunQueues([]HostQueue{{Workload: smallWorkload(t, "Sys0", 1)}}, 0); err == nil {
		t.Fatal("zero count accepted")
	}
}

func TestRunQueuesDefaultDepth(t *testing.T) {
	s, err := New(smallConfig(Zero, 0), smallWorkload(t, "Sys0", 1))
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := s.RunQueues([]HostQueue{{Workload: smallWorkload(t, "Sys0", 2)}}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if m.RequestsCompleted != 100 {
		t.Fatalf("completed %d", m.RequestsCompleted)
	}
}

func TestMultiQueueRetryIsolation(t *testing.T) {
	// On a worn device, the read tenant's p99 should be much better
	// under RiF than under SENC even with a noisy write neighbour.
	tail := func(scheme Scheme) float64 {
		s, err := New(smallConfig(scheme, 2000), smallWorkload(t, "Ali124", 1))
		if err != nil {
			t.Fatal(err)
		}
		queues := []HostQueue{
			{Workload: smallWorkload(t, "Ali124", 2), Depth: 32},
			{Workload: smallWorkload(t, "Ali2", 3), Depth: 32},
		}
		_, perQueue, err := s.RunQueues(queues, 300)
		if err != nil {
			t.Fatal(err)
		}
		return perQueue[0].ReadLatencies.Percentile(99)
	}
	senc := tail(Sentinel)
	rf := tail(RiF)
	if rf >= senc {
		t.Fatalf("RiF read-tenant p99 %vus not below SENC %vus", rf, senc)
	}
}

func TestRunQueuesDeterministic(t *testing.T) {
	mk := func() (*Metrics, []QueueMetrics) {
		s, err := New(smallConfig(RiF, 1000), smallWorkload(t, "Ali124", 1))
		if err != nil {
			t.Fatal(err)
		}
		queues := []HostQueue{
			{Workload: smallWorkload(t, "Ali124", 7), Depth: 16},
			{Workload: smallWorkload(t, "Sys0", 8), Depth: 16},
		}
		m, pq, err := s.RunQueues(queues, 150)
		if err != nil {
			t.Fatal(err)
		}
		return m, pq
	}
	m1, q1 := mk()
	m2, q2 := mk()
	if m1.Makespan != m2.Makespan || q1[0].BytesRead != q2[0].BytesRead || q1[1].BytesWritten != q2[1].BytesWritten {
		t.Fatal("multi-queue runs diverged")
	}
}

// TestPeakInFlightCountsEveryHost checks the port counts the requests
// in flight whichever host submitted them: the multi-queue host and a
// burst of direct Submits, each offering a depth above one, report a
// peak above one and within the depth they offered.
func TestPeakInFlightCountsEveryHost(t *testing.T) {
	s, err := New(smallConfig(RiF, 1000), smallWorkload(t, "Ali124", 1))
	if err != nil {
		t.Fatal(err)
	}
	queues := []HostQueue{
		{Workload: smallWorkload(t, "Ali124", 2), Depth: 4},
		{Workload: smallWorkload(t, "Ali124", 3), Depth: 4},
	}
	m, _, err := s.RunQueues(queues, 50)
	if err != nil {
		t.Fatal(err)
	}
	if m.PeakInFlight <= 1 || m.PeakInFlight > 8 {
		t.Fatalf("RunQueues peak in flight %d, want in (1, 8]", m.PeakInFlight)
	}

	w := smallWorkload(t, "Ali124", 1)
	s, err = New(smallConfig(RiF, 1000), w)
	if err != nil {
		t.Fatal(err)
	}
	const reads = 6
	for i := 0; i < reads; i++ {
		s.Submit(trace.Request{Op: trace.Read, LPN: int64(i) * 16, Pages: 2}, 0, w, i)
	}
	m, err = s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if m.PeakInFlight <= 1 || m.PeakInFlight > reads {
		t.Fatalf("Submit burst peak in flight %d, want in (1, %d]", m.PeakInFlight, reads)
	}
}

// TestSubmitRejectsOutOfRangeLPN pins the port's range check: a request
// whose pages [LPN, LPN+Pages) are negative, overflow int64 or reach
// past the device fails the run through Drain instead of panicking in
// the FTL, and never reaches the forward map. Requests that end on the
// device's last page still run.
func TestSubmitRejectsOutOfRangeLPN(t *testing.T) {
	cfg := smallConfig(RiF, 0)
	total := int64(cfg.Geometry.TotalPages())
	submit := func(req trace.Request) (*SSD, *Metrics, error) {
		s, err := New(cfg, allocStubWorkload{})
		if err != nil {
			t.Fatal(err)
		}
		s.Submit(req, 0, allocStubWorkload{}, 0)
		m, err := s.Drain()
		return s, m, err
	}
	for _, req := range []trace.Request{
		{Op: trace.Write, LPN: math.MaxInt64 - 1, Pages: 4},
		{Op: trace.Read, LPN: math.MaxInt64 - 1, Pages: 4},
		{Op: trace.Read, LPN: -1, Pages: 1},
		{Op: trace.Write, LPN: 0, Pages: -1},
		{Op: trace.Write, LPN: total - 1, Pages: 2},
		{Op: trace.Read, LPN: total, Pages: 1},
	} {
		s, _, err := submit(req)
		if err == nil || !strings.Contains(err.Error(), "outside the device") {
			t.Fatalf("%+v: Drain err = %v, want an out-of-range error", req, err)
		}
		for _, c := range s.ftl.fwd {
			if c != nil {
				t.Fatalf("%+v reached the FTL", req)
			}
		}
	}
	for _, req := range []trace.Request{
		{Op: trace.Write, LPN: total - 1, Pages: 1},
		{Op: trace.Read, LPN: total - 4, Pages: 4},
	} {
		if _, m, err := submit(req); err != nil || m.RequestsCompleted != 1 {
			t.Fatalf("%+v on the last pages: err = %v", req, err)
		}
	}
}
