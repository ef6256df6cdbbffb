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

// event is a single entry in the calendar queue, held by value in
// the heap's one slice.
type event struct {
	at  Time
	seq uint64 // FIFO tiebreak for events at the same instant
	fn  Handler
}

// Engine is a single-threaded discrete-event simulator. The zero value
// is not usable; create one with NewEngine.
//
// The calendar queue is a 4-ary min-heap of event values in one slice:
// flatter than a binary heap (half the levels, so fewer cache-missing
// compare/swap rounds on the sift-down path that dominates pops), free
// of the interface boxing container/heap imposes, and with no pointer
// to chase per event. An event cannot be canceled: a model that stops
// waiting on one ignores it when it fires.
type Engine struct {
	now   Time
	seq   uint64
	queue []event
	// processed counts events executed, for diagnostics and loop guards.
	processed uint64
	// maxPending is the event heap's depth high-water mark, for
	// observability (how bursty was the schedule?).
	maxPending int
}

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
func (e *Engine) At(at Time, fn Handler) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	//riflint:allow alloc -- append into capacity vacated by Run; the slice grows only when the heap sets a new high-water mark
	e.queue = append(e.queue, event{at: at, seq: e.seq, fn: fn})
	e.seq++
	e.siftUp(len(e.queue) - 1)
	if len(e.queue) > e.maxPending {
		e.maxPending = len(e.queue)
	}
}

// After schedules fn to fire d nanoseconds from now.
//
//riflint:hotpath
func (e *Engine) After(d Time, fn Handler) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
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
		next.fn.Fire()
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

// popRoot removes the minimum event (queue[0]): the last event fills
// the root's place and sifts down.
func (e *Engine) popRoot() {
	q := e.queue
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the handler for the collector
	e.queue = q[:n]
	if n > 0 {
		e.siftDown(last)
	}
}

// siftUp moves queue[i] toward the root until its parent is no later.
func (e *Engine) siftUp(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(&ev, &q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

// siftDown places ev, which leaves the root empty, by moving the
// earliest child up into the hole while that child is earlier.
func (e *Engine) siftDown(ev event) {
	q := e.queue
	n := len(q)
	i := 0
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
			if eventLess(&q[c], &q[best]) {
				best = c
			}
		}
		if !eventLess(&q[best], &ev) {
			break
		}
		q[i] = q[best]
		i = best
	}
	q[i] = ev
}
