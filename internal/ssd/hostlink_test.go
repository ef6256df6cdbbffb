package ssd

import (
	"testing"

	"repro/internal/sim"
)

func (h *hostLink) idle() bool { return !h.busy && h.pending.len() == 0 }

// The link serves transfers one at a time in submission order, and
// keeps that order when its waiting ring is reused across bursts.
func TestHostLinkFIFOOrder(t *testing.T) {
	eng := sim.NewEngine()
	h := &hostLink{eng: eng}
	var order []int
	var at []sim.Time
	for round := 0; round < 2; round++ {
		for i := 1; i <= 3; i++ {
			id := 3*round + i
			h.transfer(sim.Time(10*i), fire(func() {
				order = append(order, id)
				at = append(at, eng.Now())
			}))
		}
		eng.Run()
	}
	wantAt := []sim.Time{10, 30, 60, 70, 90, 120}
	for i := range wantAt {
		if order[i] != i+1 || at[i] != wantAt[i] {
			t.Fatalf("completions %v at %v, want 1..6 at %v", order, at, wantAt)
		}
	}
	if !h.idle() {
		t.Fatal("link busy after every transfer landed")
	}
}

// A continuation runs when its transfer lands, after the link has
// started the next waiting transfer: a transfer it queues lines up
// behind that one, as a chained stage's next hop does.
func TestHostLinkChainsDone(t *testing.T) {
	eng := sim.NewEngine()
	h := &hostLink{eng: eng}
	var chainedAt, bAt sim.Time = -1, -1
	h.transfer(10, fire(func() {
		h.transfer(5, fire(func() { chainedAt = eng.Now() }))
	}))
	h.transfer(10, fire(func() { bAt = eng.Now() }))
	eng.Run()
	if bAt != 20 || chainedAt != 25 {
		t.Fatalf("queued transfer landed at %v and chained one at %v, want 20 and 25", bAt, chainedAt)
	}
	if !h.idle() {
		t.Fatal("link busy after the chain completed")
	}
}

// Saturating the link with n back-to-back transfers of length d keeps
// it busy without a gap: the k-th lands at k*d, the last at n*d.
func TestHostLinkBackToBack(t *testing.T) {
	eng := sim.NewEngine()
	h := &hostLink{eng: eng}
	const n, d = 20, 13
	landed := 0
	for i := 0; i < n; i++ {
		h.transfer(d, fire(func() {
			landed++
			if eng.Now() != sim.Time(landed*d) {
				t.Errorf("transfer %d landed at %v, want %v", landed, eng.Now(), sim.Time(landed*d))
			}
		}))
	}
	if end := eng.Run(); end != n*d || landed != n {
		t.Fatalf("%d transfers ended at %v, want %d at %v", landed, end, n, sim.Time(n*d))
	}
}

// TestHostLinkZeroAlloc is the runtime half of the //riflint:hotpath
// guard on transfer and finish: once the waiting ring and the event
// heap have reached their high-water marks, a contended transfer —
// queue, start, finish, continuation — allocates nothing.
func TestHostLinkZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	h := &hostLink{eng: eng}
	done := fire(func() {})
	burst := func() {
		for i := 0; i < 16; i++ {
			h.transfer(sim.Time(i+1), done)
		}
		eng.Run()
	}
	burst() // warm the ring and the event heap
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("a burst of contended transfers allocates %.1f times, want 0", allocs)
	}
	if !h.idle() {
		t.Fatal("link not drained after bursts")
	}
}
