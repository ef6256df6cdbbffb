// Package obs is the simulator-wide observability subsystem: a
// low-overhead metrics registry (atomic counters, gauges and
// sketch-backed latency histograms), a sim-time span tracer with Chrome
// trace_event export, and machine-readable per-run manifests.
//
// Every instrument is nil-safe: methods on a nil *Registry, *Counter,
// *Gauge, *Histogram or *Tracer are no-ops, so instrumented hot paths
// cost a single nil check (and zero allocations) when observability
// is disabled. Layers accept a possibly-nil registry and hold typed
// handles; the run harness decides whether anything is collected.
package obs

import (
	"slices"
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

// Histogram is a latency distribution: a stats.Sketch behind a mutex,
// so concurrent hosts can observe into one instrument and a drained
// simulation can merge its own sketch in. Observe allocates only when
// an observation widens the sketch's bucket range. A nil Histogram
// discards observations.
type Histogram struct {
	mu sync.Mutex
	s  stats.Sketch
}

// Observe folds one observation into the histogram; like
// stats.Sketch.Add, it panics on a negative or NaN x.
//
//riflint:hotpath
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.s.Add(x)
	h.mu.Unlock()
}

// Merge folds a sketch into the histogram. Merging is exact, so a
// histogram that held nothing before reads exactly as the sketch does.
func (h *Histogram) Merge(s *stats.Sketch) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.s.Merge(s)
	h.mu.Unlock()
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.s.N()
}

// snapshot captures the histogram's summary.
func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Count: h.s.N(),
		Mean:  h.s.Mean(),
		Min:   h.s.Min(),
		Max:   h.s.Max(),
		P50:   h.s.Quantile(0.5),
		P90:   h.s.Quantile(0.9),
		P99:   h.s.Quantile(0.99),
		P999:  h.s.Quantile(0.999),
	}
}

// HistogramSnapshot is the serializable summary of one histogram: the
// exact count, mean and extremes, and quantiles within the sketch's
// relative accuracy (stats.SketchAlpha).
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
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
	// Counters and gauges are carved from slabs.
	counterSlab []Counter
	gaugeSlab   []Gauge
}

// The slab sizes, in instruments. A simulation registers at most 83
// counters and 21 gauges, so one slab of each serves a run, and maps
// sized for one slab do not grow during it.
const (
	counterSlab = 96
	gaugeSlab   = 24
)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter, counterSlab),
		gauges:   make(map[string]*Gauge, gaugeSlab),
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
		c = take(&r.counterSlab, counterSlab)
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
		g = take(&r.gaugeSlab, gaugeSlab)
		r.gauges[name] = g
	}
	return g
}

// take carves the next instrument from *slab, refilling it with n
// fresh ones when it is empty.
func take[T any](slab *[]T, n int) *T {
	if len(*slab) == 0 {
		*slab = make([]T, n)
	}
	v := &(*slab)[0]
	*slab = (*slab)[1:]
	return v
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every instrument's current value, in one pass
// under the registry's lock. Writers sort the names.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for k, v := range r.counters {
			s.Counters[k] = v.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for k, v := range r.gauges {
			s.Gauges[k] = v.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for k, v := range r.hists {
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

// sortedKeys returns m's keys in order, in keys' storage when it has
// room (the manifest encoder's keyOrder sorts into a kind's previous
// order; nil makes a new one). Generics keep the three instrument maps
// on one helper.
func sortedKeys[V any](keys []string, m map[string]V) []string {
	keys = slices.Grow(keys[:0], len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
