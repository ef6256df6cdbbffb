package ecc

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestTableILatencyRange(t *testing.T) {
	e := NewEngine()
	if e.MinLatency() != sim.Microsecond {
		t.Fatalf("min latency = %v, want 1us", e.MinLatency())
	}
	if e.MaxLatency() != 20*sim.Microsecond {
		t.Fatalf("max latency = %v, want 20us", e.MaxLatency())
	}
}

func TestDecodeCleanPage(t *testing.T) {
	e := NewEngine()
	out := e.Decode(0.0001)
	if !out.OK {
		t.Fatal("near-clean page failed to decode")
	}
	if out.Latency != sim.Microsecond || out.Iterations != 1 {
		t.Fatalf("clean decode latency=%v iters=%d", out.Latency, out.Iterations)
	}
}

func TestDecodeFailureBurnsMaxIterations(t *testing.T) {
	// §III-B3: "When an uncorrectable page is decoded by an ECC
	// engine, its tECC is much longer than that of an ECC-decodable
	// page" — the full 20 iterations.
	e := NewEngine()
	out := e.Decode(0.012)
	if out.OK {
		t.Fatal("page above capability decoded")
	}
	if out.Latency != e.MaxLatency() || out.Iterations != e.MaxIterations {
		t.Fatalf("failed decode latency=%v iters=%d", out.Latency, out.Iterations)
	}
}

func TestDecodeBoundaryExactlyAtCapability(t *testing.T) {
	e := NewEngine()
	if !e.Decode(e.Capability).OK {
		t.Fatal("page at exactly the capability must decode")
	}
	if e.Decode(e.Capability * 1.0001).OK {
		t.Fatal("page just above the capability must fail")
	}
}

func TestIterationsMonotonic(t *testing.T) {
	e := NewEngine()
	prev := 0
	for r := 0.0; r <= 0.0085; r += 0.0005 {
		it := e.Iterations(r)
		if it < prev {
			t.Fatalf("iterations decreased at rber=%v", r)
		}
		if it < 1 || it > e.MaxIterations {
			t.Fatalf("iterations out of range at rber=%v: %d", r, it)
		}
		prev = it
	}
}

func TestIterationCurveShape(t *testing.T) {
	// Fig. 3(b): iterations stay low at half the capability and reach
	// the cap at the capability.
	e := NewEngine()
	if it := e.Iterations(e.Capability / 2); it > 5 {
		t.Fatalf("iterations at cap/2 = %d, want small", it)
	}
	if it := e.Iterations(e.Capability); it != e.MaxIterations {
		t.Fatalf("iterations at capability = %d, want %d", it, e.MaxIterations)
	}
	if it := e.Iterations(0); it != 1 {
		t.Fatalf("iterations at 0 = %d", it)
	}
}

func TestLatencyProportionalToIterations(t *testing.T) {
	e := NewEngine()
	for _, r := range []float64{0.001, 0.004, 0.007, 0.0085, 0.02} {
		out := e.Decode(r)
		if out.Latency != sim.Time(out.Iterations)*e.IterationTime {
			t.Fatalf("rber=%v: latency %v != %d iterations", r, out.Latency, out.Iterations)
		}
	}
}

// TestCubeMatchesPow: Iterations cubes rber/Capability by multiplying.
// That must be bit-equal to the math.Pow(x, 3) it replaced wherever the
// cube can move the iteration count, so every decode latency is
// unchanged: a dense sweep of (0, Capability] plus the edge values.
func TestCubeMatchesPow(t *testing.T) {
	e := NewEngine()
	check := func(rber float64) {
		t.Helper()
		x := rber / e.Capability
		if got, want := x*x*x, math.Pow(x, 3); got != want && want >= 0x1p-1022 {
			t.Fatalf("rber %v: x*x*x = %v, math.Pow = %v", rber, got, want)
		}
		want := 1 + int(float64(e.MaxIterations-1)*math.Pow(x, 3)+0.5)
		if got := e.Iterations(rber); got != min(want, e.MaxIterations) {
			t.Fatalf("rber %v: %d iterations, math.Pow gives %d", rber, got, want)
		}
	}
	const n = 1_000_000
	for i := 1; i <= n; i++ {
		check(e.Capability * float64(i) / n)
	}
	for _, r := range []float64{
		math.SmallestNonzeroFloat64, 0x1p-1022, 1e-300, 1e-12, 1e-6,
		math.Nextafter(e.Capability, 0), e.Capability,
	} {
		check(r)
	}
}
