package fleet

import "testing"

// TestStopAny pins the stop-hook composition the serving layer uses
// to merge server-wide draining with per-job cancellation.
func TestStopAny(t *testing.T) {
	if StopAny() != nil {
		t.Fatal("StopAny() must be nil (no hook) for zero predicates")
	}
	if StopAny(nil, nil) != nil {
		t.Fatal("StopAny(nil, nil) must collapse to nil")
	}

	tru := func() bool { return true }
	fals := func() bool { return false }

	if got := StopAny(nil, fals, nil); got == nil || got() {
		t.Fatal("single non-nil false predicate must report false")
	}
	if got := StopAny(fals, tru); got == nil || !got() {
		t.Fatal("any true predicate must make the composition true")
	}
	if got := StopAny(fals, fals); got() {
		t.Fatal("all-false composition must report false")
	}

	// Short-circuit: once an earlier predicate fires, later ones are
	// not consulted.
	called := false
	probe := func() bool { called = true; return false }
	if got := StopAny(tru, probe); !got() {
		t.Fatal("composition with leading true must fire")
	}
	if called {
		t.Fatal("composition must short-circuit after the first true predicate")
	}
}

// TestRunStopComposedHooks: a composed hook drives Scheduler.RunStop
// exactly like a plain one.
func TestRunStopComposedHooks(t *testing.T) {
	fired := false
	stop := StopAny(func() bool { return fired }, nil)
	ran := 0
	s := NewScheduler(1)
	defer s.Stop()
	err := s.RunStop(8, stop, func(i int) error {
		ran++
		if i == 2 {
			fired = true
		}
		return nil
	})
	if err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if ran != 3 {
		t.Fatalf("ran %d cells, want 3 (stop fires after index 2)", ran)
	}
}
