package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEngine times the event heap under the classic hold model:
// depth events stay pending, and each one that fires schedules its
// successor a pseudo-random delay ahead, so every event costs one pop
// and one push at a steady heap depth. A Fig. 17 cell peaks at 48
// pending events; 16 and 256 bracket it, and 1024 is an open-loop
// replay's default in-flight bound (replay.DefaultMaxInFlight), the
// deepest heap a benchmark runs. ns/event is the engine's share of
// the simulator's per-event cost.
func BenchmarkEngine(b *testing.B) {
	delays := make([]Time, 1024)
	rng := NewRNG(1, 1)
	for i := range delays {
		delays[i] = Time(1 + rng.IntN(10_000))
	}
	for _, depth := range []int{16, 48, 256, 1024} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := NewEngine()
			fired := 0
			var hold fire
			hold = func() {
				fired++
				if fired <= b.N {
					e.After(delays[fired%len(delays)], hold)
				}
			}
			for i := 0; i < depth; i++ {
				e.At(delays[i], hold)
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.Processed()), "ns/event")
		})
	}
}
