// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is the substrate for the SSD simulator: it owns a virtual
// clock in nanoseconds, an event heap ordered by (time, sequence), and
// seeded random-number streams so that every run is reproducible.
package sim

import (
	"fmt"
	"math"
)

// Time is a point on the simulation clock, in nanoseconds.
type Time int64

// Common durations expressed in Time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable simulation time.
const MaxTime Time = math.MaxInt64

// Microseconds reports t as a floating-point microsecond count.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds reports t as a floating-point millisecond count.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds reports t as a floating-point second count.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with microsecond precision for logs and tests.
func (t Time) String() string { return fmt.Sprintf("%.3fus", t.Microseconds()) }

// Handler is what runs when a scheduled event's time comes: the
// simulator's one continuation type. A model's station or in-flight
// record is its own handler, so scheduling it stores a pointer in the
// event and allocates nothing, and a record that waits on several
// things in turn names the step it resumes in its own state.
type Handler interface{ Fire() }

// event is a single entry in the calendar queue. Fired and canceled
// events return to the engine's free list and are reused by later
// At/After calls, so the steady-state hot path allocates nothing; the
// generation counter keeps recycled EventIDs from aliasing.
type event struct {
	at    Time
	seq   uint64 // FIFO tiebreak for events at the same instant
	fn    Handler
	gen   uint32 // bumped on recycle; stale EventIDs fail the match
	index int32  // heap position, -1 when not queued
}

// EventID identifies a scheduled event so it can be canceled. The
// zero value is valid and cancels nothing.
type EventID struct {
	ev  *event
	gen uint32
}

// Engine is a single-threaded discrete-event simulator. The zero value
// is not usable; create one with NewEngine.
//
// The calendar queue is a 4-ary min-heap over concrete *event values:
// flatter than a binary heap (half the levels, so fewer cache-missing
// compare/swap rounds on the sift-down path that dominates pops) and
// free of the interface boxing container/heap imposes.
type Engine struct {
	now   Time
	seq   uint64
	queue []*event
	free  []*event
	// slab is where events beyond the free list are carved from, so a
	// fresh engine's first events cost one allocation per eventSlab.
	slab []event
	// processed counts events executed, for diagnostics and loop guards.
	processed uint64
	// maxPending is the event heap's depth high-water mark, for
	// observability (how bursty was the schedule?).
	maxPending int
}

// eventSlab is how many events one slab allocation carves: about what
// one closed-loop cell of a Fig. 17 grid has pending at its deepest.
const eventSlab = 64

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Processed reports how many events have executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// MaxPending reports the deepest the event heap has ever been.
func (e *Engine) MaxPending() int { return e.maxPending }

// At schedules fn to fire at absolute time at. Scheduling in the past
// panics: it is always a model bug.
//
//riflint:hotpath
func (e *Engine) At(at Time, fn Handler) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		if len(e.slab) == 0 {
			//riflint:allow alloc -- free-list refill: one slab per eventSlab high-water slots, each event reused forever after
			e.slab = make([]event, eventSlab)
		}
		ev = &e.slab[0]
		e.slab = e.slab[1:]
	}
	ev.at = at
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	e.push(ev)
	if len(e.queue) > e.maxPending {
		e.maxPending = len(e.queue)
	}
	return EventID{ev: ev, gen: ev.gen}
}

// After schedules fn to fire d nanoseconds from now.
//
//riflint:hotpath
func (e *Engine) After(d Time, fn Handler) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel removes a scheduled event from the queue immediately, so it
// neither runs nor occupies heap space until its timestamp. Canceling
// an already-fired or already-canceled event is a no-op.
func (e *Engine) Cancel(id EventID) {
	ev := id.ev
	if ev == nil || ev.gen != id.gen || ev.index < 0 {
		return
	}
	e.remove(int(ev.index))
	e.recycle(ev)
}

// recycle returns a dequeued event to the free list. The generation
// bump invalidates any EventID still pointing at it, and dropping the
// handler releases whatever it points at.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.gen++
	//riflint:allow alloc -- free list reuses capacity vacated by At; it never exceeds the queue high-water mark
	e.free = append(e.free, ev)
}

// Run fires events in (time, sequence) order until the queue drains,
// and returns the final clock value.
//
//riflint:hotpath
func (e *Engine) Run() Time {
	for len(e.queue) > 0 {
		next := e.queue[0]
		e.popRoot()
		e.now = next.at
		e.processed++
		fn := next.fn
		e.recycle(next)
		fn.Fire()
	}
	return e.now
}

// The 4-ary heap. Children of node i sit at 4i+1..4i+4, the parent at
// (i-1)/4. Order is (at, seq): earliest first, FIFO within an instant.

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push appends ev and restores the heap invariant.
func (e *Engine) push(ev *event) {
	//riflint:allow alloc -- append into capacity vacated by popRoot; growth only while the heap sets a new high-water mark
	e.queue = append(e.queue, ev)
	ev.index = int32(len(e.queue) - 1)
	e.siftUp(len(e.queue) - 1)
}

// popRoot removes the minimum event (queue[0]), marking it dequeued.
func (e *Engine) popRoot() {
	q := e.queue
	n := len(q) - 1
	q[0].index = -1
	if n > 0 {
		q[0] = q[n]
		q[0].index = 0
	}
	q[n] = nil
	e.queue = q[:n]
	if n > 1 {
		e.siftDown(0)
	}
}

// remove deletes the event at heap position i.
func (e *Engine) remove(i int) {
	q := e.queue
	n := len(q) - 1
	q[i].index = -1
	if i == n {
		q[n] = nil
		e.queue = q[:n]
		return
	}
	moved := q[n]
	q[i] = moved
	q[n] = nil
	e.queue = q[:n]
	moved.index = int32(i)
	if !e.siftDown(i) {
		e.siftUp(i)
	}
}

// siftUp moves queue[i] toward the root until its parent is no later.
func (e *Engine) siftUp(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(ev, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = int32(i)
		i = parent
	}
	q[i] = ev
	ev.index = int32(i)
}

// siftDown moves queue[i] toward the leaves, swapping with its
// earliest child while that child is earlier. It reports whether the
// event moved.
func (e *Engine) siftDown(i int) bool {
	q := e.queue
	n := len(q)
	ev := q[i]
	start := i
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(q[c], q[best]) {
				best = c
			}
		}
		if !eventLess(q[best], ev) {
			break
		}
		q[i] = q[best]
		q[i].index = int32(i)
		i = best
	}
	q[i] = ev
	ev.index = int32(i)
	return i != start
}
