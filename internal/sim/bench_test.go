package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEngine times the event heap under the classic hold model:
// depth events stay pending, and each one that fires schedules its
// successor a pseudo-random delay ahead, so every event costs one pop
// and one push at a steady heap depth. 16 and 48 are depths that runs
// reach: each station keeps at most one event pending, and in-flight
// requests wait in station queues, not in the heap, so a Fig. 17 cell
// peaks at about 48 and a tailsweep replay at about 33. 256 and 1024
// only stress the data structure; no run reaches them. ns/event is the
// engine's share of the simulator's per-event cost.
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
