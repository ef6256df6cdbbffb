// Package obs is the simulator-wide observability subsystem: a
// low-overhead metrics registry (atomic counters, gauges and
// streaming histograms), a sim-time span tracer with Chrome
// trace_event export, and machine-readable per-run manifests.
//
// Every instrument is nil-safe: methods on a nil *Registry, *Counter,
// *Gauge, *Histogram or *Tracer are no-ops, so instrumented hot paths
// cost a single nil check (and zero allocations) when observability
// is disabled. Layers accept a possibly-nil registry and hold typed
// handles; the run harness decides whether anything is collected.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// Counter is a monotonically increasing atomic counter. The zero
// value is ready to use; a nil Counter discards updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
//
//riflint:hotpath
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to
// use; a nil Gauge discards updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// SetMax raises the gauge to v if v is larger (a high-water mark).
//
//riflint:hotpath
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value reports the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a streaming histogram: exponential buckets for the
// exposition formats plus a stats.Summary for exact count, mean and
// extremes. Observations are mutex-protected (the grids run many
// simulations concurrently); the buckets are preallocated so Observe
// never allocates. A nil Histogram discards observations.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // bucket upper bounds, ascending; last is +Inf sentinel
	buckets []int64   // len(bounds)+1, last catches > bounds[len-1]
	sum     stats.Summary
}

// DefaultBuckets spans [base, base*growth^(n-1)] exponentially. The
// registry's default histogram covers 0.1..~1e7 (microsecond-scale
// latencies in a nanosecond-clock simulator fit comfortably).
func DefaultBuckets() []float64 { return ExponentialBuckets(0.1, 2, 28) }

// ExponentialBuckets returns n upper bounds starting at base, each
// growth times the previous.
func ExponentialBuckets(base, growth float64, n int) []float64 {
	if n <= 0 || base <= 0 || growth <= 1 {
		return nil
	}
	out := make([]float64, n)
	b := base
	for i := range out {
		out[i] = b
		b *= growth
	}
	return out
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultBuckets()
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]int64, len(bounds)+1),
	}
}

// Observe folds one observation into the histogram.
//
//riflint:hotpath
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.sum.Add(x)
	h.buckets[h.bucketOf(x)]++
	h.mu.Unlock()
}

// bucketOf binary-searches the bounds; callers hold the lock.
func (h *Histogram) bucketOf(x float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if x <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum.N()
}

// Mean reports the arithmetic mean of the observations.
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum.Mean()
}

// snapshotLocked captures the histogram state; callers hold no lock.
func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Count: h.sum.N(),
		Mean:  h.sum.Mean(),
		Min:   h.sum.Min(),
		Max:   h.sum.Max(),
	}
	for i, cnt := range h.buckets {
		if cnt == 0 {
			continue
		}
		bound := "+Inf"
		if i < len(h.bounds) {
			bound = trimFloat(h.bounds[i])
		}
		s.Buckets = append(s.Buckets, BucketCount{UpperBound: bound, Count: cnt})
	}
	return s
}

// BucketCount is one non-empty histogram bucket in a snapshot.
type BucketCount struct {
	UpperBound string `json:"le"`
	Count      int64  `json:"count"`
}

// HistogramSnapshot is the serializable state of one histogram.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Mean    float64       `json:"mean"`
	Min     float64       `json:"min"`
	Max     float64       `json:"max"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return s
}

// Registry is a named collection of instruments. Instruments are
// created on first use and live for the registry's lifetime, so hot
// paths hold handles rather than performing lookups. A nil *Registry
// hands out nil instruments, making the disabled path free.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed. Returns
// nil (a valid no-op instrument) when the registry is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram with default buckets,
// creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramWith(name, nil)
}

// HistogramWith returns the named histogram, creating it with the
// given bucket upper bounds (nil selects DefaultBuckets). Bounds are
// fixed at creation; later calls return the existing histogram.
func (r *Registry) HistogramWith(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every instrument's current value, with
// deterministic (sorted) ordering for serialization and goldens.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	s := Snapshot{}
	if len(counters) > 0 {
		s.Counters = make(map[string]int64, len(counters))
		for k, v := range counters {
			s.Counters[k] = v.Value()
		}
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]int64, len(gauges))
		for k, v := range gauges {
			s.Gauges[k] = v.Value()
		}
	}
	if len(hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(hists))
		for k, v := range hists {
			s.Histograms[k] = v.snapshot()
		}
	}
	return s
}

// Snapshot is a point-in-time copy of a registry's instruments.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// sortedKeys returns m's keys in order (generics keep the three
// instrument maps on one helper).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
