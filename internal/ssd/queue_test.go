package ssd

import (
	"math/rand/v2"
	"testing"
)

// The ring must behave as a plain slice deque through wraps, growths
// and pushFront, its masked indexing included.
func TestRingMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var q ring[int]
	var model []int
	grows, wraps := 0, 0
	for step := 0; step < 5000; step++ {
		// Bias toward pushes early and pops late, so the ring both
		// grows through several sizes and wraps at each of them.
		pushBias := 6
		if step > 2500 {
			pushBias = 4
		}
		switch r := rng.IntN(10); {
		case r < pushBias-1:
			size := len(q.buf)
			q.push(step)
			model = append(model, step)
			if len(q.buf) != size {
				grows++
			}
		case r < pushBias:
			q.pushFront(-step)
			model = append([]int{-step}, model...)
		case len(model) > 0:
			if got := q.peek(); got != model[0] {
				t.Fatalf("step %d: peek %d, want %d", step, got, model[0])
			}
			if got := q.pop(); got != model[0] {
				t.Fatalf("step %d: pop %d, want %d", step, got, model[0])
			}
			model = model[1:]
		}
		if q.len() != len(model) {
			t.Fatalf("step %d: len %d, want %d", step, q.len(), len(model))
		}
		if q.head+q.n > len(q.buf) {
			wraps++
		}
		if n := len(q.buf); n&(n-1) != 0 {
			t.Fatalf("step %d: buffer length %d is not a power of two", step, n)
		}
	}
	if grows < 4 || wraps == 0 {
		t.Fatalf("the ring grew %d times and wrapped on %d steps; the test does not cover both", grows, wraps)
	}
	for len(model) > 0 {
		if got := q.pop(); got != model[0] {
			t.Fatalf("drain: pop %d, want %d", got, model[0])
		}
		model = model[1:]
	}
}

// TestRingCarvesFirstBuffer: rings sharing a slab take their first
// buffers from it, ringFirst elements each, and double past that.
func TestRingCarvesFirstBuffer(t *testing.T) {
	var slab []int
	var a, b ring[int]
	a.slab, b.slab = &slab, &slab
	a.push(1)
	b.push(2)
	if len(a.buf) != ringFirst || len(b.buf) != ringFirst || len(slab) != (recordSlab-2)*ringFirst {
		t.Fatalf("first buffers of %d and %d, %d left in the slab", len(a.buf), len(b.buf), len(slab))
	}
	for i := 2; i <= ringFirst+1; i++ {
		a.push(i)
	}
	if len(a.buf) != 2*ringFirst || len(slab) != (recordSlab-2)*ringFirst {
		t.Fatalf("grown buffer of %d, %d left in the slab", len(a.buf), len(slab))
	}
	for i := 1; i <= ringFirst+1; i++ {
		if got := a.pop(); got != i {
			t.Fatalf("pop %d, want %d", got, i)
		}
	}
}
