package ssd

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestWriteCacheImmediateGrant(t *testing.T) {
	c := &writeCache{capacity: 10}
	granted := false
	c.acquire(4, fire(func() { granted = true }))
	if !granted || c.inUse != 4 {
		t.Fatalf("granted=%v inUse=%d", granted, c.inUse)
	}
	if err := c.release(4); err != nil {
		t.Fatal(err)
	}
	if !c.idle() {
		t.Fatal("cache not idle after release")
	}
}

func TestWriteCacheBackpressureFIFO(t *testing.T) {
	c := &writeCache{capacity: 8}
	var order []int
	c.acquire(6, fire(func() { order = append(order, 1) }))
	c.acquire(4, fire(func() { order = append(order, 2) })) // blocked (6+4 > 8)
	c.acquire(1, fire(func() { order = append(order, 3) })) // blocked behind 2 (FIFO)
	if len(order) != 1 {
		t.Fatalf("order=%v", order)
	}
	if err := c.release(6); err != nil {
		t.Fatal(err)
	}
	// Both waiters now fit (4+1 <= 8) and must admit in FIFO order.
	if len(order) != 3 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order=%v", order)
	}
}

func TestWriteCacheOversizeRequest(t *testing.T) {
	c := &writeCache{capacity: 4}
	granted := false
	c.acquire(10, fire(func() { granted = true })) // larger than the cache
	if !granted {
		t.Fatal("oversize request must be admitted when the cache is empty")
	}
	blocked := false
	c.acquire(1, fire(func() { blocked = true }))
	if blocked {
		t.Fatal("grant while oversized entry resident")
	}
	if err := c.release(10); err != nil {
		t.Fatal(err)
	}
	if !blocked {
		t.Fatal("waiter not admitted after oversize release")
	}
}

func TestWriteCacheReleaseUnderflowSurfacesError(t *testing.T) {
	c := &writeCache{capacity: 4}
	if err := c.release(1); err == nil {
		t.Fatal("underflow release did not report an error")
	}
	if c.inUse != 0 {
		t.Fatalf("inUse not clamped: %d", c.inUse)
	}
}

// TestWriteCacheDisabled pins that a device has no write-through
// path: one built without a write cache is refused.
func TestWriteCacheDisabled(t *testing.T) {
	cfg := smallConfig(RiF, 0)
	cfg.WriteCachePages = 0
	if _, err := New(cfg, allocStubWorkload{}); err == nil || !strings.Contains(err.Error(), "write cache") {
		t.Fatalf("New without a write cache: err = %v, want a write-cache error", err)
	}
}

// cacheProbeWorkload issues a deterministic alternating read/write
// stream over a small footprint.
type cacheProbeWorkload struct {
	n    int
	cold float64
}

func (w *cacheProbeWorkload) Next() trace.Request {
	w.n++
	op := trace.Read
	if w.n%3 == 0 {
		op = trace.Write
	}
	return trace.Request{Op: op, LPN: int64((w.n * 16) % 4096), Pages: 4}
}

func (w *cacheProbeWorkload) InitialAgeDays(int64) float64 { return w.cold }

func TestFlusherBatchesAcrossPlanes(t *testing.T) {
	// Four pages on four planes of one die must program together: the
	// flusher's die occupancy is ~one tPROG, not four.
	cfg := smallConfig(Zero, 0)
	cfg.QueueDepth = 8
	s, err := New(cfg, &cacheProbeWorkload{cold: 0})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run(90) // 30 writes of 4 pages
	if err != nil {
		t.Fatal(err)
	}
	if m.BytesWritten == 0 {
		t.Fatal("no writes")
	}
	// All flushers drained (checked inside Run) and the cache is
	// empty: the background path completed.
}

func TestCacheDrainsAtRunEnd(t *testing.T) {
	cfg := smallConfig(One, 0)
	s, err := New(cfg, &cacheProbeWorkload{cold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(50); err != nil {
		t.Fatal(err)
	}
	if !s.cache.idle() {
		t.Fatal("cache not drained")
	}
	for _, f := range s.flushers {
		if !f.idle() {
			t.Fatal("flusher not drained")
		}
	}
}
