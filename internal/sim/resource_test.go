package sim

import "testing"

func TestResourceImmediateGrant(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "ch", 1)
	granted := false
	r.Acquire(func() { granted = true })
	if !granted {
		t.Fatal("grant was not immediate on idle resource")
	}
	if r.InUse() != 1 {
		t.Fatalf("InUse = %d, want 1", r.InUse())
	}
	r.Release()
	if !r.Idle() {
		t.Fatal("resource not idle after release")
	}
}

func TestResourceFIFOQueue(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "ch", 1)
	var order []int
	hold := func(id int, d Time) {
		r.Acquire(func() {
			order = append(order, id)
			e.After(d, r.Release)
		})
	}
	e.At(0, func() {
		hold(1, 10)
		hold(2, 10)
		hold(3, 10)
	})
	e.Run()
	for i, want := range []int{1, 2, 3} {
		if order[i] != want {
			t.Fatalf("grant order = %v", order)
		}
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "die", 2)
	active := 0
	maxActive := 0
	for i := 0; i < 5; i++ {
		e.At(0, func() {
			r.Acquire(func() {
				active++
				if active > maxActive {
					maxActive = active
				}
				e.After(10, func() {
					active--
					r.Release()
				})
			})
		})
	}
	e.Run()
	if maxActive != 2 {
		t.Fatalf("max concurrent grants = %d, want 2", maxActive)
	}
}

func TestResourceTryAcquire(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "ecc", 1)
	if !r.TryAcquire(func() {}) {
		t.Fatal("TryAcquire failed on idle resource")
	}
	if r.TryAcquire(func() { t.Fatal("granted over capacity") }) {
		t.Fatal("TryAcquire succeeded on full resource")
	}
	r.Release()
	if !r.TryAcquire(func() {}) {
		t.Fatal("TryAcquire failed after release")
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x", 1)
	defer func() {
		if recover() == nil {
			t.Error("release of idle resource did not panic")
		}
	}()
	r.Release()
}

func TestResourceZeroCapacityPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("zero capacity did not panic")
		}
	}()
	NewResource(e, "x", 0)
}

func TestResourceBusyTime(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "ch", 1)
	e.At(100, func() { r.Use(50, nil) })
	e.At(400, func() { r.Use(25, nil) })
	e.Run()
	if got := r.BusyTime(); got != 75 {
		t.Fatalf("BusyTime = %v, want 75", got)
	}
}

func TestResourceUseChainsDone(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "ch", 1)
	var doneAt Time = -1
	e.At(0, func() {
		r.Use(30, func() { doneAt = e.Now() })
	})
	e.Run()
	if doneAt != 30 {
		t.Fatalf("done ran at %v, want 30", doneAt)
	}
	if !r.Idle() {
		t.Fatal("resource busy after Use completed")
	}
}

func TestResourceBackToBackUtilization(t *testing.T) {
	// Saturating a unit-capacity resource with N back-to-back holds of
	// length d must take exactly N*d with 100% utilization.
	e := NewEngine()
	r := NewResource(e, "ch", 1)
	const n, d = 20, 13
	e.At(0, func() {
		for i := 0; i < n; i++ {
			r.Use(d, nil)
		}
	})
	end := e.Run()
	if end != n*d {
		t.Fatalf("end = %v, want %v", end, Time(n*d))
	}
	if r.BusyTime() != n*d {
		t.Fatalf("busy = %v, want %v", r.BusyTime(), Time(n*d))
	}
}

// TestResourceUseZeroAlloc is the runtime half of the //riflint:hotpath
// guard on Use: once the hold free list and the waiter queue have
// reached their high-water marks, a contended hold — queue, grant,
// timer, release, continuation — allocates nothing.
func TestResourceUseZeroAlloc(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "host", 1)
	done := func() {}
	burst := func() {
		for i := 0; i < 16; i++ {
			r.Use(Time(i+1), done)
		}
		e.Run()
	}
	burst() // warm the hold free list, the waiter queue and the event heap
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("a burst of contended Use calls allocates %.1f times, want 0", allocs)
	}
	if !r.Idle() || r.BusyTime() == 0 {
		t.Fatalf("resource not drained after bursts: idle=%v busy=%v", r.Idle(), r.BusyTime())
	}
}

// Use must keep FIFO grant order and run each continuation when its
// hold ends, also when holds are recycled across bursts.
func TestResourceUseOrder(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "host", 1)
	var got []Time
	for round := 0; round < 2; round++ {
		for i := 0; i < 3; i++ {
			r.Use(Time(10*(i+1)), func() { got = append(got, e.Now()) })
		}
		e.Run()
	}
	want := []Time{10, 30, 60, 70, 90, 120}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("completion times = %v, want %v", got, want)
		}
	}
}
