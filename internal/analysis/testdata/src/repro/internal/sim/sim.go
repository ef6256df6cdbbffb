// Package sim is a minimal stub of repro/internal/sim for analyzer
// golden tests: same import path, same type names, none of the
// implementation.
package sim

type Time int64

const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

type Engine struct{ now Time }

func NewEngine() *Engine { return &Engine{} }

func (e *Engine) Now() Time { return e.now }

type Handler interface{ Fire() }

func (e *Engine) At(t Time, fn Handler) {}

func (e *Engine) After(d Time, fn Handler) {}
