package sim

import (
	"testing"
	"testing/quick"
)

// fire adapts a closure to a Handler, so the engine's tests can
// schedule plain funcs.
type fire func()

func (f fire) Fire() { f() }

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, fire(func() { order = append(order, 3) }))
	e.At(10, fire(func() { order = append(order, 1) }))
	e.At(20, fire(func() { order = append(order, 2) }))
	end := e.Run()
	if end != 30 {
		t.Fatalf("final clock = %v, want 30", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, fire(func() { order = append(order, i) }))
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("events at equal time not FIFO: %v", order)
		}
	}
}

func TestEngineAfterUsesCurrentClock(t *testing.T) {
	e := NewEngine()
	var fired Time
	e.At(100, fire(func() {
		e.After(50, fire(func() { fired = e.Now() }))
	}))
	e.Run()
	if fired != 150 {
		t.Fatalf("After fired at %v, want 150", fired)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, fire(func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, fire(func() {}))
	}))
	e.Run()
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, fire(func() {}))
}

func TestEngineEventCascade(t *testing.T) {
	// An event chain scheduled from within handlers must preserve
	// causal ordering and advance the clock monotonically.
	e := NewEngine()
	var times []Time
	var chain func(depth int)
	chain = func(depth int) {
		times = append(times, e.Now())
		if depth < 100 {
			e.After(7, fire(func() { chain(depth + 1) }))
		}
	}
	e.At(0, fire(func() { chain(0) }))
	e.Run()
	if len(times) != 101 {
		t.Fatalf("chain length = %d, want 101", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i] != times[i-1]+7 {
			t.Fatalf("non-monotonic chain at %d: %v -> %v", i, times[i-1], times[i])
		}
	}
}

func TestEngineInterleavedOrderingProperty(t *testing.T) {
	// Property: when handlers schedule further events as they fire, so
	// pushes interleave with pops, events still fire in (time, FIFO)
	// order, each exactly once.
	f := func(raw []uint16) bool {
		e := NewEngine()
		type stamp struct {
			at  Time
			seq int
		}
		var got []stamp
		next := 0
		var schedule func(at Time, fanout int)
		schedule = func(at Time, fanout int) {
			seq := next
			next++
			e.At(at, fire(func() {
				got = append(got, stamp{e.Now(), seq})
				for k := 0; k < fanout && next < len(raw); k++ {
					r := raw[next]
					schedule(e.Now()+Time(r%64), int(r>>14))
				}
			}))
		}
		for i := 0; i < 4 && next < len(raw); i++ {
			schedule(Time(raw[next]%64), 2)
		}
		e.Run()
		if len(got) != next {
			return false
		}
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if b.at < a.at || (b.at == a.at && b.seq < a.seq) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineOrderingProperty(t *testing.T) {
	// Property: for any set of event times, execution order is a
	// stable sort by time.
	f := func(raw []uint16) bool {
		e := NewEngine()
		type stamp struct {
			at  Time
			idx int
		}
		var got []stamp
		for i, r := range raw {
			at := Time(r)
			i := i
			e.At(at, fire(func() { got = append(got, stamp{at, i}) }))
		}
		e.Run()
		if len(got) != len(raw) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].idx < got[i-1].idx {
				return false // FIFO violated
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The steady-state schedule/fire cycle must not allocate: events are
// values in a slice that keeps its capacity.
func TestEngineHotPathZeroAlloc(t *testing.T) {
	e := NewEngine()
	fn := fire(func() {})
	// Grow the heap's backing array to the depth the loop reaches.
	for i := 0; i < 64; i++ {
		e.After(Time(i), fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			e.After(Time(i), fn)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state At/After/Run allocates %.1f/op, want 0", allocs)
	}
}
