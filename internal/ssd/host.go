package ssd

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/trace"
)

// HostQueue is one NVMe-style submission queue: its own workload
// stream and its own closed-loop depth. Multiple queues share the
// device and contend for dies, channels and the ECC engines — the
// multi-queue setting MQSim was built to study.
type HostQueue struct {
	Workload Workload
	Depth    int
}

// QueueMetrics reports one queue's share of a multi-queue run.
type QueueMetrics struct {
	RequestsCompleted int
	BytesRead         int64
	BytesWritten      int64
	ReadLatencies     stats.Sketch
}

// Bandwidth reports the queue's achieved bandwidth in MB/s over the
// run's makespan.
func (q *QueueMetrics) Bandwidth(makespan float64) float64 {
	if makespan <= 0 {
		return 0
	}
	return float64(q.BytesRead+q.BytesWritten) / 1e6 / makespan
}

// RunQueues executes a multi-queue closed-loop run: each queue keeps
// Depth requests outstanding and issues nPerQueue requests in total.
// It returns the device-level metrics plus per-queue breakdowns.
func (s *SSD) RunQueues(queues []HostQueue, nPerQueue int) (*Metrics, []QueueMetrics, error) {
	if s.cfg.OpenLoop {
		return nil, nil, fmt.Errorf("ssd: multi-queue host is closed-loop-only but OpenLoop is set; use Run for open-loop replay")
	}
	if len(queues) == 0 {
		return nil, nil, fmt.Errorf("ssd: no host queues")
	}
	if nPerQueue <= 0 {
		return nil, nil, fmt.Errorf("ssd: nPerQueue = %d", nPerQueue)
	}
	perQueue := make([]QueueMetrics, len(queues))
	remaining := make([]int, len(queues))

	var issue func(qi int)
	issue = func(qi int) {
		if remaining[qi] == 0 {
			return
		}
		remaining[qi]--
		s.inFlight++
		q := &queues[qi]
		req := q.Workload.Next()
		start := s.eng.Now()
		// Cold-age lookups route through the owning queue's workload.
		prev := s.workload
		s.workload = q.Workload
		s.runRequest(req, start, false, func(res cmdResult) {
			bytes, lat := s.recordCompletion(req, start, res)
			qm := &perQueue[qi]
			qm.RequestsCompleted++
			if req.Op == trace.Read {
				qm.BytesRead += bytes
				qm.ReadLatencies.Add(lat)
			} else {
				qm.BytesWritten += bytes
			}
			issue(qi)
		})
		s.workload = prev
	}

	for qi := range queues {
		if queues[qi].Workload == nil {
			return nil, nil, fmt.Errorf("ssd: queue %d has no workload", qi)
		}
		depth := queues[qi].Depth
		if depth <= 0 {
			depth = s.cfg.QueueDepth
		}
		if depth > nPerQueue {
			depth = nPerQueue
		}
		remaining[qi] = nPerQueue
		for i := 0; i < depth; i++ {
			issue(qi)
		}
	}

	s.eng.Run()
	if err := s.finishRun(); err != nil {
		return nil, nil, err
	}
	return &s.m, perQueue, nil
}
