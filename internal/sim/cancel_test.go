package sim

import (
	"math/rand/v2"
	"testing"
)

// The eager-cancel regression suite: Cancel must remove events from
// the heap immediately (so the queue length is exact and long-deadline
// timeouts don't pin memory), recycled event structs must not let
// stale EventIDs cancel their successors, and the heap must stay
// ordered under arbitrary interleavings of schedule/cancel.

func TestCancelDropsPendingImmediately(t *testing.T) {
	e := NewEngine()
	var ids []EventID
	for i := Time(1); i <= 8; i++ {
		ids = append(ids, e.At(i*10, fire(func() {})))
	}
	if len(e.queue) != 8 {
		t.Fatalf("pending = %d, want 8", len(e.queue))
	}
	// A long-deadline timeout canceled early must leave the heap at
	// once, not sit as a tombstone until its timestamp pops.
	e.Cancel(ids[7])
	if len(e.queue) != 7 {
		t.Fatalf("pending after cancel = %d, want 7", len(e.queue))
	}
	e.Cancel(ids[0]) // heap root
	e.Cancel(ids[3]) // interior node
	if len(e.queue) != 5 {
		t.Fatalf("pending after three cancels = %d, want 5", len(e.queue))
	}
	e.Run()
	if e.Processed() != 5 {
		t.Fatalf("processed = %d, want 5", e.Processed())
	}
	if len(e.queue) != 0 {
		t.Fatalf("pending after run = %d, want 0", len(e.queue))
	}
}

func TestCancelFromHandlerDropsPending(t *testing.T) {
	e := NewEngine()
	victimRan := false
	victim := e.At(100, fire(func() { victimRan = true }))
	e.At(10, fire(func() {
		e.Cancel(victim)
		if len(e.queue) != 0 {
			t.Errorf("pending inside handler = %d, want 0", len(e.queue))
		}
	}))
	e.Run()
	if victimRan {
		t.Error("canceled event ran")
	}
}

// A stale EventID — its event already fired and the struct was reused
// for a newer event — must not cancel the newer event.
func TestStaleIDDoesNotCancelRecycledEvent(t *testing.T) {
	e := NewEngine()
	stale := e.At(1, fire(func() {}))
	e.Run() // fires; the event struct goes to the free list

	ran := false
	e.At(2, fire(func() { ran = true })) // reuses the recycled struct
	e.Cancel(stale)                      // must be a no-op
	if len(e.queue) != 1 {
		t.Fatalf("stale cancel removed a live event: pending = %d", len(e.queue))
	}
	e.Run()
	if !ran {
		t.Error("recycled event did not run after stale cancel")
	}
}

func TestCancelCanceledIDTwiceIsNoOp(t *testing.T) {
	e := NewEngine()
	id := e.At(5, fire(func() {}))
	keep := e.At(6, fire(func() {}))
	e.Cancel(id)
	e.Cancel(id) // second cancel of the same ID
	if len(e.queue) != 1 {
		t.Fatalf("pending = %d, want 1", len(e.queue))
	}
	_ = keep
}

func TestZeroEventIDCancelIsNoOp(t *testing.T) {
	e := NewEngine()
	e.At(1, fire(func() {}))
	e.Cancel(EventID{})
	if len(e.queue) != 1 {
		t.Fatalf("pending = %d, want 1", len(e.queue))
	}
}

// Property: under random interleavings of schedules and cancels, the
// surviving events run exactly once, in (time, FIFO) order, and
// the queue length tracks the live count exactly.
func TestCancelOrderingProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xc0ffee, 17))
	for trial := 0; trial < 200; trial++ {
		e := NewEngine()
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		live := map[int]bool{}
		var ids []EventID
		n := 1 + rng.IntN(64)
		for i := 0; i < n; i++ {
			at := Time(rng.IntN(50))
			i := i
			ids = append(ids, e.At(at, fire(func() { fired = append(fired, rec{at, i}) })))
			live[i] = true
			// Cancel a random earlier event some of the time.
			if rng.IntN(3) == 0 {
				victim := rng.IntN(len(ids))
				e.Cancel(ids[victim])
				delete(live, victim)
			}
			if len(e.queue) != len(live) {
				t.Fatalf("trial %d: pending = %d, live = %d", trial, len(e.queue), len(live))
			}
		}
		e.Run()
		if len(fired) != len(live) {
			t.Fatalf("trial %d: fired %d, want %d", trial, len(fired), len(live))
		}
		for _, f := range fired {
			if !live[f.seq] {
				t.Fatalf("trial %d: canceled event %d fired", trial, f.seq)
			}
		}
		for i := 1; i < len(fired); i++ {
			a, b := fired[i-1], fired[i]
			if b.at < a.at || (b.at == a.at && b.seq < a.seq) {
				t.Fatalf("trial %d: order violated: %+v before %+v", trial, a, b)
			}
		}
	}
}

// The steady-state schedule/fire cycle must not allocate: events come
// from the free list and EventIDs are values.
func TestEngineHotPathZeroAlloc(t *testing.T) {
	e := NewEngine()
	fn := fire(func() {})
	// Warm the free list and the heap's backing array.
	for i := 0; i < 64; i++ {
		e.After(Time(i), fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			e.After(Time(i), fn)
		}
		id := e.After(1000, fn)
		e.Cancel(id)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state At/After/Cancel/Run allocates %.1f/op, want 0", allocs)
	}
}
