package ssd

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The device has one host port, the way a real drive has one
// submission/completion interface: Submit puts a request in flight and
// the completion handler bound with OnComplete hears about it when it
// finishes. Every host is a thin caller of that port — the closed-loop
// queues below (Run, RunQueues) and the open-loop arrival engine in
// package replay.

// Completion is what the port reports for one finished host request.
type Completion struct {
	// Tag is the value the request was submitted with.
	Tag int
	Op  trace.Op
	// Bytes is the request's payload; Latency is a read's latency in
	// µs (zero for a write).
	Bytes   int64
	Latency float64
	// MediaError reports pages that exhausted the retry ladder.
	MediaError bool
}

// OnComplete binds the port's completion handler. Bind it once, before
// the run's first Submit; the device has recorded a request's
// completion in its metrics by the time the handler hears of it.
func (s *SSD) OnComplete(h func(Completion)) { s.onComplete = h }

// Submit puts one host request in flight, its latency counted from
// arrival. src answers the retention age of the cold data it reads,
// and tag comes back in its Completion. A request whose pages do not
// all lie on the device is rejected before it reaches the FTL: it never
// completes, and Drain returns the error.
func (s *SSD) Submit(req trace.Request, arrival sim.Time, src Workload, tag int) {
	if req.LPN < 0 || req.Pages < 0 || req.LPN > s.ftl.pages-int64(req.Pages) {
		s.failRun(fmt.Errorf("ssd: request for %d pages at lpn %d lies outside the device's %d pages",
			req.Pages, req.LPN, s.ftl.pages))
		return
	}
	s.inFlight++
	if s.inFlight > s.m.PeakInFlight {
		s.m.PeakInFlight = s.inFlight
	}
	r := s.newReq()
	*r = hostReq{s: s, req: req, arrival: arrival, src: src, tag: tag}
	if req.Pages > 0 {
		p := int64(s.cfg.Geometry.PlanesPerDie)
		r.outstanding = int((req.LPN+int64(req.Pages)-1)/p - req.LPN/p + 1)
	}
	// Split the request into die commands along the striping. A
	// command may complete synchronously (a cached write), and the last
	// one recycles r: the loop reads only its own locals.
	lpn, remaining := req.LPN, req.Pages
	for remaining > 0 {
		cmd := s.commandAt(lpn, remaining)
		lpn += int64(cmd.n)
		remaining -= cmd.n
		c := s.newCmd(r, cmd)
		if req.Op == trace.Read {
			s.readCommand(c)
		} else {
			s.writeCommand(c)
		}
	}
}

// recordCompletion accounts a finished host request — counters,
// makespan, bytes and, for a read, its latency (µs) into ReadLatencies
// — and returns the port's report of it.
//
//riflint:hotpath
func (s *SSD) recordCompletion(req trace.Request, arrival sim.Time, tag int, res cmdResult) Completion {
	s.inFlight--
	s.m.RequestsCompleted++
	s.lastDone = s.eng.Now()
	c := Completion{Tag: tag, Op: req.Op, Bytes: int64(req.Pages) * int64(s.cfg.Geometry.PageBytes),
		MediaError: res.uncPages > 0}
	if c.MediaError {
		s.m.MediaErrorRequests++
	}
	if req.Op != trace.Read {
		s.m.BytesWritten += c.Bytes
		return c
	}
	s.m.BytesRead += c.Bytes
	c.Latency = (s.eng.Now() - arrival).Microseconds()
	s.m.ReadLatencies.Add(c.Latency)
	return c
}

// Drain runs the simulation until every submitted request and all
// background work has finished, verifies the device drained cleanly
// and returns the run's metrics.
func (s *SSD) Drain() (*Metrics, error) {
	s.eng.Run()
	if s.runErr != nil {
		return nil, s.runErr
	}
	if s.inFlight != 0 {
		return nil, fmt.Errorf("ssd: simulation drained with %d requests in flight", s.inFlight)
	}
	if !s.cache.idle() {
		return nil, fmt.Errorf("ssd: write cache not drained at end of run")
	}
	for i := range s.flushers {
		if !s.flushers[i].idle() {
			return nil, fmt.Errorf("ssd: die flusher not drained at end of run")
		}
	}
	for i := range s.dies {
		d := &s.dies[i]
		if !d.Idle() {
			return nil, fmt.Errorf("ssd: die not drained at end of run")
		}
		s.m.Suspensions += d.Suspensions()
	}
	// Bandwidth is measured to the completion of the last host
	// request; background flushes may run on slightly past it.
	s.m.Makespan = s.lastDone
	for i := range s.channels {
		ch := &s.channels[i]
		if !ch.quiesced() {
			return nil, fmt.Errorf("ssd: channel not quiesced at drain")
		}
		s.m.Channels.add(ch.usage())
		s.m.Faults.ChannelCorruptions += ch.corruptions
	}
	s.m.GCRuns, s.m.PagesRelocated = s.ftl.GCStats()
	s.m.Faults.DieFailovers = s.ftl.Failovers()
	s.foldObs()
	return &s.m, nil
}

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
// Depth requests outstanding (0 = Config.QueueDepth) and issues
// nPerQueue requests in total. It returns the device-level metrics
// plus per-queue breakdowns.
func (s *SSD) RunQueues(queues []HostQueue, nPerQueue int) (*Metrics, []QueueMetrics, error) {
	if len(queues) == 0 {
		return nil, nil, fmt.Errorf("ssd: no host queues")
	}
	if nPerQueue <= 0 {
		return nil, nil, fmt.Errorf("ssd: nPerQueue = %d", nPerQueue)
	}
	l := s.closedLoop(queues)
	for qi, q := range queues {
		if q.Workload == nil {
			return nil, nil, fmt.Errorf("ssd: queue %d has no workload", qi)
		}
		depth := q.Depth
		if depth <= 0 {
			depth = s.cfg.QueueDepth
		}
		l.remaining[qi] = nPerQueue
		for range min(depth, nPerQueue) {
			l.issue(qi)
		}
	}
	m, err := s.Drain()
	if err != nil {
		return nil, nil, err
	}
	return m, l.perQueue, nil
}

// closedLoopHost keeps every queue's depth of requests outstanding on
// the port: each completion refills its queue's slot until the queue
// has issued its share. The tag of a request is its queue's index.
type closedLoopHost struct {
	s         *SSD
	queues    []HostQueue
	remaining []int
	perQueue  []QueueMetrics
}

// closedLoop builds the closed-loop host over queues and binds its
// completion handler to the port.
func (s *SSD) closedLoop(queues []HostQueue) *closedLoopHost {
	l := &closedLoopHost{
		s:         s,
		queues:    queues,
		remaining: make([]int, len(queues)),
		perQueue:  make([]QueueMetrics, len(queues)),
	}
	s.OnComplete(l.complete)
	return l
}

// issue submits queue qi's next request, if it has any left.
func (l *closedLoopHost) issue(qi int) {
	if l.remaining[qi] == 0 {
		return
	}
	l.remaining[qi]--
	w := l.queues[qi].Workload
	l.s.Submit(w.Next(), l.s.eng.Now(), w, qi)
}

// complete is the closed-loop host's completion handler: it credits
// the request's queue and refills the queue's slot.
func (l *closedLoopHost) complete(c Completion) {
	l.perQueue[c.Tag].record(c)
	l.issue(c.Tag)
}

// record credits one completed request to the queue. (The handler
// above reaches the whole request path through Submit, so its runtime
// pin, TestRunQueuesRequestZeroAlloc, covers it instead.)
//
//riflint:hotpath
func (q *QueueMetrics) record(c Completion) {
	q.RequestsCompleted++
	if c.Op == trace.Read {
		q.BytesRead += c.Bytes
		q.ReadLatencies.Add(c.Latency)
	} else {
		q.BytesWritten += c.Bytes
	}
}
