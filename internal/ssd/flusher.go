package ssd

import (
	"repro/internal/sim"
)

// dieFlusher drains the write cache toward one die. It coalesces
// buffered pages into full multi-plane programs — one page per plane
// per tPROG — which is how real controllers amortize the 400-us
// program over the plane parallelism (and what keeps mixed workloads
// from being program-bound).
type dieFlusher struct {
	ssd      *SSD
	die      *dieStation
	ch       *channelStation
	perPlane []planeQueue // FIFO per plane, in the device's flushPool
	pending  int
	active   bool

	// The flusher has one batch in flight at a time: its size and GC
	// debt wait here, and programming says which of the batch's two
	// hand-offs the flusher fires next.
	batch       int
	batchGC     sim.Time
	programming bool
}

// flushNode is one cached page awaiting its background program: the
// garbage-collection debt it carries, and the pool index of the next
// page queued for the same plane (0 ends the queue).
type flushNode struct {
	gcTime sim.Time
	next   int32
}

// planeQueue is one plane's FIFO of cached pages, linked through the
// device's flushPool; 0 marks an empty end.
type planeQueue struct{ head, tail int32 }

// flushFirst is a flushPool's first capacity, 1 KiB of nodes: a
// short run's backlog (a 40-request chaos cell's) stays within it.
const flushFirst = 64

// flushPool holds the cached pages of every flusher of a device. A
// queued page holds a write-cache slot until it is programmed, so the
// device's backlog is bounded by WriteCachePages, save for a single
// write larger than the whole cache, which the cache admits alone.
// Per-plane rings sized to that bound would each cost WriteCachePages
// entries; per-plane rings that double as they fill made a fifth of a
// Fig. 17 cell's allocations. One pool for the device grows only when
// the device's backlog sets a new high-water mark, doubling from
// flushFirst, and recycles its nodes through a free list. Queues link
// nodes by index, so growing the pool moves no queue.
type flushPool struct {
	nodes []flushNode // node i (1-based) is nodes[i-1]
	free  int32       // first free node, 0 when none
}

// node returns the node at index i.
func (p *flushPool) node(i int32) *flushNode { return &p.nodes[i-1] }

// take returns a free node's index.
func (p *flushPool) take() int32 {
	if i := p.free; i != 0 {
		p.free = p.node(i).next
		return i
	}
	n := len(p.nodes)
	if n == cap(p.nodes) {
		//riflint:allow alloc -- pool growth: only when the device's write backlog sets a new high-water mark
		nodes := make([]flushNode, n, max(flushFirst, 2*n))
		copy(nodes, p.nodes)
		p.nodes = nodes
	}
	p.nodes = p.nodes[:n+1]
	return int32(n + 1)
}

// give returns node i to the free list.
func (p *flushPool) give(i int32) {
	p.node(i).next = p.free
	p.free = i
}

// enqueue buffers one page for background programming on a plane,
// carrying gcTime of garbage-collection debt.
func (f *dieFlusher) enqueue(plane int, gcTime sim.Time) {
	pool := &f.ssd.flushPool
	i := pool.take()
	*pool.node(i) = flushNode{gcTime: gcTime}
	q := &f.perPlane[plane]
	if q.tail != 0 {
		pool.node(q.tail).next = i
	} else {
		q.head = i
	}
	q.tail = i
	f.pending++
}

// pop dequeues the oldest page queued for a plane and reports its
// garbage-collection debt; ok is false when none is queued.
func (f *dieFlusher) pop(plane int) (gcTime sim.Time, ok bool) {
	q := &f.perPlane[plane]
	i := q.head
	if i == 0 {
		return 0, false
	}
	pool := &f.ssd.flushPool
	n := pool.node(i)
	gcTime = n.gcTime
	if q.head = n.next; q.head == 0 {
		q.tail = 0
	}
	pool.give(i)
	f.pending--
	return gcTime, true
}

// kick starts the flusher if it is idle and work exists.
func (f *dieFlusher) kick() {
	if f.active || f.pending == 0 {
		return
	}
	f.active = true
	f.flushBatch()
}

// flushBatch assembles a multi-plane batch (at most one page per
// plane), moves it across the channel, programs it, releases the
// cache slots, and loops while work remains.
func (f *dieFlusher) flushBatch() {
	var gc sim.Time
	batch := 0
	for pl := range f.perPlane {
		if pageGC, ok := f.pop(pl); ok {
			gc += pageGC
			batch++
		}
	}
	if batch == 0 {
		f.active = false
		return
	}
	f.batch, f.batchGC = batch, gc
	f.ch.submit(xferJob{kind: xferWrite, pages: batch, label: "W", onDecoded: f})
}

// Fire advances the batch in flight. Once it has crossed the channel,
// the die programs it; once programmed, its cache slots are released
// and the next batch flushes.
func (f *dieFlusher) Fire() {
	if !f.programming {
		f.programming = true
		f.die.Program(f.batchGC+f.ssd.cfg.Timing.TProg, f)
		return
	}
	f.programming = false
	if err := f.ssd.cache.release(f.batch); err != nil {
		f.ssd.failRun(err)
	}
	f.flushBatch()
}

// idle reports whether the flusher has no buffered or in-flight work.
func (f *dieFlusher) idle() bool { return !f.active && f.pending == 0 }
