package ssd

import (
	"repro/internal/sim"
)

// flushPage is one cached page awaiting its background program.
type flushPage struct {
	plane  int
	gcTime sim.Time // garbage-collection debt carried by this page
}

// dieFlusher drains the write cache toward one die. It coalesces
// buffered pages into full multi-plane programs — one page per plane
// per tPROG — which is how real controllers amortize the 400-us
// program over the plane parallelism (and what keeps mixed workloads
// from being program-bound).
type dieFlusher struct {
	ssd      *SSD
	die      *dieStation
	ch       *channelStation
	perPlane []ring[flushPage] // FIFO per plane
	pending  int
	active   bool

	// The flusher has one batch in flight at a time: its size and GC
	// debt wait here, and programming says which of the batch's two
	// hand-offs the flusher resumes from next.
	batch       int
	batchGC     sim.Time
	programming bool
}

func newDieFlusher(s *SSD, die *dieStation, ch *channelStation) *dieFlusher {
	f := &dieFlusher{
		ssd:      s,
		die:      die,
		ch:       ch,
		perPlane: make([]ring[flushPage], s.cfg.Geometry.PlanesPerDie),
	}
	for i := range f.perPlane {
		f.perPlane[i].slab = &s.rings.pages
	}
	return f
}

// enqueue buffers one page for background programming.
func (f *dieFlusher) enqueue(p flushPage) {
	f.perPlane[p.plane].push(p)
	f.pending++
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
		if f.perPlane[pl].len() == 0 {
			continue
		}
		gc += f.perPlane[pl].pop().gcTime
		batch++
	}
	if batch == 0 {
		f.active = false
		return
	}
	f.pending -= batch
	f.batch, f.batchGC = batch, gc
	f.ch.submit(xferJob{kind: xferWrite, pages: batch, label: "W", onDecoded: f})
}

// resume advances the batch in flight. Once it has crossed the
// channel, the die programs it; once programmed, its cache slots are
// released and the next batch flushes.
func (f *dieFlusher) resume() {
	if !f.programming {
		f.programming = true
		f.die.Program(f.batchGC+f.ssd.cfg.Timing.TProg, f)
		return
	}
	f.programming = false
	f.ssd.cache.release(f.batch)
	f.flushBatch()
}

// idle reports whether the flusher has no buffered or in-flight work.
func (f *dieFlusher) idle() bool { return !f.active && f.pending == 0 }
