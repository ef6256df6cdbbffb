package obs

import (
	"math"
	"sync"
	"testing"

	"repro/internal/stats"
)

// TestNilInstrumentsAreNoOps exercises every method on nil receivers:
// the disabled path must be safe to call from any layer.
func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	var g *Gauge
	g.Set(1)
	g.Add(2)
	g.SetMax(3)
	if g.Value() != 0 {
		t.Fatalf("nil gauge value = %d", g.Value())
	}
	var h *Histogram
	h.Observe(1)
	h.Merge(&stats.Sketch{})
	if h.Count() != 0 {
		t.Fatal("nil histogram not a no-op")
	}
	var tr *Tracer
	tr.Span("die0", "A", 0, 10)
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer not a no-op")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	if s := r.Snapshot(); s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Fatal("nil registry snapshot not empty")
	}
}

// TestDisabledPathAllocatesNothing pins the acceptance criterion:
// instrumented hot paths cost zero allocations when sinks are
// disabled (nil instruments).
func TestDisabledPathAllocatesNothing(t *testing.T) {
	var (
		c  *Counter
		g  *Gauge
		h  *Histogram
		tr *Tracer
	)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.SetMax(7)
		h.Observe(3.5)
		tr.Span("ch0", "A", 0, 100)
	})
	if allocs != 0 {
		t.Fatalf("disabled instruments allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestEnabledObserveAllocatesNothing checks the live path too: once a
// value's sketch bucket exists, Observe and Add must not allocate
// either.
func TestEnabledObserveAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.SetMax(9)
		h.Observe(42)
	})
	if allocs != 0 {
		t.Fatalf("enabled instruments allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestConcurrentHammering drives counters, gauges, histograms and the
// tracer from many goroutines; run with -race this is the data-race
// proof for the shared-registry mode the parallel grids use.
func TestConcurrentHammering(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(1024)
	const (
		workers = 8
		iters   = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("events_total")
			g := r.Gauge("depth_highwater")
			h := r.Histogram("latency_us")
			for i := 0; i < iters; i++ {
				c.Add(1)
				g.SetMax(int64(w*iters + i))
				h.Observe(float64(i % 100))
				tr.Span("die0", "A", 0, 10)
				// Interleave lookups with updates: creation must be
				// safe against concurrent readers.
				r.Counter("events_total").Inc()
			}
		}(w)
	}
	wg.Wait()

	s := r.Snapshot()
	if got := s.Counters["events_total"]; got != 2*workers*iters {
		t.Fatalf("counter = %d, want %d", got, 2*workers*iters)
	}
	if got := s.Gauges["depth_highwater"]; got != workers*iters-1 {
		t.Fatalf("gauge high-water = %d, want %d", got, workers*iters-1)
	}
	hs := s.Histograms["latency_us"]
	if hs.Count != workers*iters {
		t.Fatalf("histogram count = %d, want %d", hs.Count, workers*iters)
	}
	if tr.Len() != 1024 || tr.Dropped() != int64(workers*iters-1024) {
		t.Fatalf("tracer len=%d dropped=%d, want 1024 and %d",
			tr.Len(), tr.Dropped(), workers*iters-1024)
	}
}

// TestHistogramQuantiles pins what the manifests and the /metrics
// exposition read from a histogram: the exact count, mean and
// extremes, and quantiles within the sketch's relative accuracy of
// the exact nearest-rank values.
func TestHistogramQuantiles(t *testing.T) {
	h := NewRegistry().Histogram("h")
	var exact stats.Sample
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
		exact.Add(float64(i))
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	s := h.snapshot()
	if math.Abs(s.Mean-500.5) > 1e-9 || s.Min != 1 || s.Max != 1000 {
		t.Fatalf("mean/min/max = %v/%v/%v, want 500.5/1/1000", s.Mean, s.Min, s.Max)
	}
	for _, c := range []struct {
		q   float64
		got float64
	}{{0.5, s.P50}, {0.9, s.P90}, {0.99, s.P99}, {0.999, s.P999}} {
		want := exact.Quantile(c.q)
		if math.Abs(c.got-want) > stats.SketchAlpha*want {
			t.Errorf("q=%v: %v, exact %v (beyond ±%v)", c.q, c.got, want, stats.SketchAlpha)
		}
	}
}

// TestHistogramMergeIsExact pins the fold-at-drain contract: a sketch
// merged into an empty histogram reads back exactly as the sketch
// does.
func TestHistogramMergeIsExact(t *testing.T) {
	var sk stats.Sketch
	for i := 1; i <= 777; i++ {
		sk.Add(float64(i*i%1009) + 0.5)
	}
	h := NewRegistry().Histogram("h")
	h.Merge(&sk)
	h.Merge(nil)
	s := h.snapshot()
	if s.Count != sk.N() || s.Mean != sk.Mean() || s.Min != sk.Min() || s.Max != sk.Max() {
		t.Fatalf("merged summary %+v diverges from the sketch", s)
	}
	if s.P50 != sk.Quantile(0.5) || s.P90 != sk.Quantile(0.9) || s.P99 != sk.Quantile(0.99) || s.P999 != sk.Quantile(0.999) {
		t.Fatalf("merged quantiles %+v diverge from the sketch", s)
	}
}

func TestGaugeSetMaxMonotone(t *testing.T) {
	var g Gauge
	g.SetMax(5)
	g.SetMax(3)
	if g.Value() != 5 {
		t.Fatalf("SetMax lowered the gauge: %d", g.Value())
	}
	g.SetMax(9)
	if g.Value() != 9 {
		t.Fatalf("SetMax did not raise the gauge: %d", g.Value())
	}
}

func TestRegistryReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("counter identity not stable")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("histogram identity not stable")
	}
}
