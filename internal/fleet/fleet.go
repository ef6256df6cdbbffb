// Package fleet runs independent simulation cells on a bounded,
// work-stealing Scheduler with deterministic, index-ordered results.
//
// Every study in this repository is a grid of independent (scheme,
// workload, P/E, config) cells: each cell owns its own sim.Engine,
// seeded RNG streams and obs registry, so cells may run concurrently
// without sharing state. The Scheduler hands out cell indices and the
// caller writes each result into a pre-indexed slot, so the assembled
// output — and therefore every report, manifest and golden — is
// byte-identical to a sequential run regardless of how the workers
// interleave. A one-worker Scheduler runs a grid's cells in ascending
// index order, which is exactly a sequential loop.
//
// Determinism contract: fn must not share mutable state between
// indices (no common *rand.Rand, no common engine). The riflint
// simdeterminism analyzer enforces the RNG half of this.
package fleet

import (
	"errors"
	"fmt"
	"runtime"
)

// ErrStopped is returned by Scheduler.RunStop and MapOn when the stop
// hook fired (or the Scheduler was stopped) before every cell ran: the
// grid was cancelled, not failed.
var ErrStopped = errors.New("fleet: run stopped")

// CellPanicError reports a cell whose fn panicked. The pool recovers
// it so one bad cell cannot crash the whole grid; the cell index says
// which one died.
type CellPanicError struct {
	// Cell is the index whose fn panicked.
	Cell int
	// Value is the recovered panic value.
	Value any
}

// Error formats the panic with its cell index.
func (e *CellPanicError) Error() string {
	return fmt.Sprintf("fleet: cell %d panicked: %v", e.Cell, e.Value)
}

// safeCall runs fn(i), converting a panic into a *CellPanicError.
func safeCall(i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &CellPanicError{Cell: i, Value: r}
		}
	}()
	return fn(i)
}

// Workers resolves a worker-count setting: n > 0 means exactly n
// workers, anything else means one worker per available CPU
// (runtime.GOMAXPROCS).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// StopAny combines stop predicates: the returned hook reports true as
// soon as any non-nil input does. Callers with several independent
// cancellation sources (a server-wide drain, a per-job cancel, a
// wall-clock timeout) compose them into the single stop hook
// Scheduler.RunStop polls. Nil inputs are skipped; with no usable
// inputs the result is nil, which RunStop treats as "never stop".
func StopAny(stops ...func() bool) func() bool {
	live := stops[:0:0]
	for _, s := range stops {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func() bool {
		for _, s := range live {
			if s() {
				return true
			}
		}
		return false
	}
}
