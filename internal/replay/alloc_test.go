package replay

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// allocStubSource serves an endless stream of zero requests so the
// advance pin below measures only advance's own body.
type allocStubSource struct{ n int64 }

func (s *allocStubSource) Next() (trace.Request, error) {
	s.n++
	return trace.Request{LPN: s.n}, nil
}

// TestArrivalsZeroAlloc is the runtime half of the //riflint:hotpath
// guards on the arrival processes: Next runs once per admitted
// request, so a single allocation there scales with trace length.
func TestArrivalsZeroAlloc(t *testing.T) {
	p, err := NewPoisson(1e5, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFixed(1e5)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := NewTraceScale(2)
	if err != nil {
		t.Fatal(err)
	}
	var clock sim.Time
	if allocs := testing.AllocsPerRun(1000, func() {
		clock = p.Next(clock)
		clock = f.Next(clock)
		clock = ts.Next(clock)
	}); allocs != 0 {
		t.Fatalf("arrival Next allocates %.1f times per draw triple; the admission hot path must be allocation-free", allocs)
	}
}

// TestAdvanceZeroAlloc pins sourceWorkload.advance, the per-request
// lookahead pull, at zero allocations (with an allocation-free source
// and arrival process plugged in).
func TestAdvanceZeroAlloc(t *testing.T) {
	arr, err := NewFixed(1e5)
	if err != nil {
		t.Fatal(err)
	}
	w := &sourceWorkload{src: &allocStubSource{}, arr: arr, limit: -1}
	if allocs := testing.AllocsPerRun(1000, func() { w.advance() }); allocs != 0 {
		t.Fatalf("advance allocates %.1f times per call; the replay hot path must be allocation-free", allocs)
	}
}

// TestOpenLoopRequestZeroAlloc pins the open-loop host's arrival and
// completion handlers on a warm device: two back-to-back arrivals
// through a one-deep ring, the second held and admitted by the first's
// completion, allocate nothing.
func TestOpenLoopRequestZeroAlloc(t *testing.T) {
	arr, err := NewFixed(1e9)
	if err != nil {
		t.Fatal(err)
	}
	w := &sourceWorkload{src: FromWorkload(smallGenerator(t, "Ali124", 1), math.MaxInt64), arr: arr, age: 5, every: 1 << 20}
	dev, err := ssd.New(smallConfig(ssd.RiF, 2000), w)
	if err != nil {
		t.Fatal(err)
	}
	o := newOpenLoop(dev, w, 1)
	pair := func() {
		w.limit, w.done = 2, false
		w.advance()
		o.schedule()
		o.eng.Run()
	}
	for range 256 {
		pair()
	}
	if allocs := testing.AllocsPerRun(500, pair); allocs != 0 {
		t.Fatalf("a steady-state open-loop arrival pair allocates %.1f times; the replay handlers must be allocation-free", allocs)
	}
	if o.nHeld != 256+501 || o.inFlight != 0 {
		t.Fatalf("held %d arrivals with %d in flight; the pin does not cover the held path", o.nHeld, o.inFlight)
	}
}
