package ssd

import (
	"testing"

	"repro/internal/obs"
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
// each read once device-wide: in the ssd_read_latency_us histogram and
// in Metrics.ReadLatencies, as many as the per-queue sketches hold.
func TestRunQueuesRecordsEveryRead(t *testing.T) {
	cfg := smallConfig(RiF, 1000)
	cfg.Obs = obs.NewRegistry()
	s, err := New(cfg, smallWorkload(t, "Ali124", 1))
	if err != nil {
		t.Fatal(err)
	}
	queues := []HostQueue{
		{Workload: smallWorkload(t, "Ali124", 2), Depth: 16},
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
	if got := cfg.Obs.Snapshot().Histograms["ssd_read_latency_us"].Count; got != reads {
		t.Fatalf("read latency histogram n = %d, per-queue sketches n = %d", got, reads)
	}
	if got := m.ReadLatencies.N(); got != reads {
		t.Fatalf("device sketch n = %d, per-queue sketches n = %d", got, reads)
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
