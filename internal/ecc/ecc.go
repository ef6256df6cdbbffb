// Package ecc models the channel-level LDPC engine of a modern SSD at
// the fidelity the simulator needs: whether a page at a given RBER
// decodes, and how long the decode takes. The latency curve is
// calibrated to the paper's Table I (tECC varies from 1 to 20 µs with
// the page's RBER) and to the iteration behaviour of the real min-sum
// decoder in internal/ldpc (Fig. 3(b)).
package ecc

import (
	"repro/internal/nand"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Engine is the analytic channel-ECC model.
type Engine struct {
	// Capability is the RBER above which decoding fails (Fig. 3(a)).
	Capability float64
	// MaxIterations is the decode iteration cap; a failing decode
	// always burns all of them (20 in the paper).
	MaxIterations int
	// IterationTime is the latency of one decoding iteration, chosen
	// so tECC spans [MinLatency, MaxIterations*IterationTime].
	IterationTime sim.Time
	// Latencies, when non-nil, receives every decode attempt's latency
	// in microseconds (the tECC distribution of the run).
	Latencies *stats.Sketch
}

// NewEngine returns the Table I engine: capability
// nand.ECCCapabilityRBER (0.0085), 20 iterations, tECC in
// [1 µs, 20 µs].
func NewEngine() *Engine {
	return &Engine{
		Capability:    nand.ECCCapabilityRBER,
		MaxIterations: 20,
		IterationTime: sim.Microsecond,
	}
}

// Iterations estimates the decoder iteration count for a page with
// the given RBER: near 1 for clean pages, rising steeply toward the
// cap as the RBER approaches the capability (matching Fig. 3(b) and
// the measured behaviour of the min-sum decoder).
func (e *Engine) Iterations(rber float64) int {
	if rber <= 0 {
		return 1
	}
	if rber > e.Capability {
		return e.MaxIterations
	}
	// x*x*x is bit-equal to math.Pow(x, 3) here (TestCubeMatchesPow)
	// and far cheaper.
	x := rber / e.Capability
	it := 1 + int(float64(e.MaxIterations-1)*(x*x*x)+0.5)
	if it > e.MaxIterations {
		it = e.MaxIterations
	}
	return it
}

// Outcome describes one decode attempt.
type Outcome struct {
	// OK reports whether the page decoded.
	OK bool
	// Latency is the engine occupancy for this attempt (tECC).
	Latency sim.Time
	// Iterations is the estimated iteration count.
	Iterations int
}

// Decode evaluates a decode attempt for a page with the given RBER.
func (e *Engine) Decode(rber float64) Outcome {
	it := e.Iterations(rber)
	return Outcome{
		OK:         rber <= e.Capability,
		Latency:    e.DecodeLatency(it),
		Iterations: it,
	}
}

// DecodeLatency is the engine occupancy (tECC) of a decode attempt
// that runs the given number of iterations, recorded in Latencies: the
// latency half of Decode, for a caller that has settled the iteration
// count without the exact RBER.
func (e *Engine) DecodeLatency(iterations int) sim.Time {
	lat := sim.Time(iterations) * e.IterationTime
	if e.Latencies != nil {
		e.Latencies.Add(lat.Microseconds())
	}
	return lat
}

// MinLatency is the fastest possible decode (one iteration).
func (e *Engine) MinLatency() sim.Time { return e.IterationTime }

// MaxLatency is the latency of a failing decode (all iterations).
func (e *Engine) MaxLatency() sim.Time {
	return sim.Time(e.MaxIterations) * e.IterationTime
}
