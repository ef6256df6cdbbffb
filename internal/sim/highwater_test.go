package sim

import "testing"

func TestEngineMaxPending(t *testing.T) {
	e := NewEngine()
	if e.MaxPending() != 0 {
		t.Fatalf("fresh engine high-water = %d", e.MaxPending())
	}
	for i := 0; i < 5; i++ {
		e.At(Time(i), fire(func() {}))
	}
	if e.MaxPending() != 5 {
		t.Fatalf("high-water = %d, want 5", e.MaxPending())
	}
	e.Run()
	// Draining does not lower the high-water mark.
	if len(e.queue) != 0 || e.MaxPending() != 5 {
		t.Fatalf("after run: pending=%d highwater=%d, want 0 and 5", len(e.queue), e.MaxPending())
	}
	// Scheduling from inside handlers keeps tracking.
	e2 := NewEngine()
	e2.At(0, fire(func() {
		for i := 0; i < 7; i++ {
			e2.After(Time(i+1), fire(func() {}))
		}
	}))
	e2.Run()
	if e2.MaxPending() != 7 {
		t.Fatalf("nested high-water = %d, want 7", e2.MaxPending())
	}
}
