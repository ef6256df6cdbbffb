// Package obs is a minimal stub of repro/internal/obs for analyzer
// golden tests: same import path, same type and method names.
package obs

type Counter struct{ v int64 }

func (c *Counter) Add(n int64) {}

func (c *Counter) Inc() {}

type Gauge struct{ v int64 }

func (g *Gauge) Set(v int64) {}

type Histogram struct{ v int64 }

func (h *Histogram) Observe(x float64) {}

type Tracer struct{ v int64 }

type Registry struct{ v int64 }

func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) Counter(name string) *Counter { return nil }

func (r *Registry) Gauge(name string) *Gauge { return nil }

func (r *Registry) Histogram(name string) *Histogram { return nil }
