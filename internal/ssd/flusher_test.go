package ssd

import (
	"math/rand/v2"
	"testing"

	"repro/internal/sim"
)

// The flushers' per-plane queues keep FIFO order per plane while they
// share one pool: random enqueues and pops across every flusher and
// plane of a device agree with a slice per plane.
func TestFlushQueuesMatchFIFO(t *testing.T) {
	s, err := New(DefaultConfig(RiF, 1000), allocStubWorkload{})
	if err != nil {
		t.Fatal(err)
	}
	planes := s.cfg.Geometry.PlanesPerDie
	ref := make([][]sim.Time, len(s.flushers)*planes)
	rng := rand.New(rand.NewPCG(3, 4))
	next := sim.Time(1)
	for step := 0; step < 200000; step++ {
		d, pl := rng.IntN(len(s.flushers)), rng.IntN(planes)
		f, q := s.flushers[d], &ref[d*planes+pl]
		// Lean toward pushes early and pops late, so the backlog
		// rises past several doublings of the pool and drains back
		// to empty.
		if rng.IntN(200000) < 120000-step/2 {
			f.enqueue(pl, next)
			*q = append(*q, next)
			next++
			continue
		}
		got, ok := f.pop(pl)
		if ok != (len(*q) > 0) {
			t.Fatalf("step %d: die %d plane %d pop ok %v with %d queued", step, d, pl, ok, len(*q))
		}
		if ok {
			if got != (*q)[0] {
				t.Fatalf("step %d: die %d plane %d popped %v, want %v", step, d, pl, got, (*q)[0])
			}
			*q = (*q)[1:]
		}
	}
	for d, f := range s.flushers {
		for pl := 0; pl < planes; pl++ {
			for _, want := range ref[d*planes+pl] {
				if got, ok := f.pop(pl); !ok || got != want {
					t.Fatalf("drain: die %d plane %d popped %v %v, want %v", d, pl, got, ok, want)
				}
			}
			if _, ok := f.pop(pl); ok {
				t.Fatalf("drain: die %d plane %d has a page too many", d, pl)
			}
		}
	}
}

// The pool grows only when the device's backlog sets a new high-water
// mark: a backlog cycling below its mark allocates nothing, however the
// pages spread over dies and planes.
func TestFlushPoolGrowsOnlyAtHighWater(t *testing.T) {
	s, err := New(DefaultConfig(RiF, 1000), allocStubWorkload{})
	if err != nil {
		t.Fatal(err)
	}
	const backlog = 1000
	planes := s.cfg.Geometry.PlanesPerDie
	queues := len(s.flushers) * planes
	for i := 0; i < backlog; i++ {
		s.flushers[i%len(s.flushers)].enqueue(i%planes, 0)
	}
	if got := len(s.flushPool.nodes); got != backlog {
		t.Fatalf("backlog %d made %d nodes", backlog, got)
	}
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		// Visit every queue in turn, moving each page popped on to
		// the next queue.
		for moved := 0; moved < 2*flushFirst; i++ {
			q, next := i%queues, (i+1)%queues
			if _, ok := s.flushers[q/planes].pop(q % planes); ok {
				s.flushers[next/planes].enqueue(next%planes, 0)
				moved++
			}
		}
	}); allocs != 0 {
		t.Fatalf("a backlog cycling below its high-water mark allocates %.1f times per %d pages moved", allocs, 2*flushFirst)
	}
	if got := len(s.flushPool.nodes); got != backlog {
		t.Fatalf("cycling a backlog of %d made %d nodes; freed nodes must be reused", backlog, got)
	}
}
