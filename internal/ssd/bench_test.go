package ssd

import (
	"runtime"
	"testing"

	"repro/internal/trace"
)

// Microbenchmarks for the simulator itself: events per second is what
// bounds how large an experiment the harness can afford.

func benchWorkload(b *testing.B, name string) *trace.Generator {
	b.Helper()
	spec, err := trace.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	spec.FootprintPages = 1 << 17
	g, err := trace.NewGenerator(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchConfig(scheme Scheme, pe int) Config {
	cfg := DefaultConfig(scheme, pe)
	cfg.Geometry.BlocksPerPlane = 256
	cfg.Geometry.PagesPerBlock = 128
	return cfg
}

// benchRun times whole runs and reports the simulator's event rate
// and its heap allocations per simulated request (device build
// excluded): the request path is allocation-free once its record
// pools are warm, so allocs/req stays near zero.
func benchRun(b *testing.B, scheme Scheme, pe int, workload string, n int) {
	b.Helper()
	var totalEvents, mallocs uint64
	var before, after runtime.MemStats
	for i := 0; i < b.N; i++ {
		s, err := New(benchConfig(scheme, pe), benchWorkload(b, workload))
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		if _, err := s.Run(n); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		b.StartTimer()
		mallocs += after.Mallocs - before.Mallocs
		totalEvents += s.Engine().Processed()
	}
	b.ReportMetric(float64(totalEvents)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(mallocs)/float64(b.N*n), "allocs/req")
}

func BenchmarkSimZero(b *testing.B)   { benchRun(b, Zero, 0, "Ali124", 1000) }
func BenchmarkSimRiF2K(b *testing.B)  { benchRun(b, RiF, 2000, "Ali124", 1000) }
func BenchmarkSimSENC2K(b *testing.B) { benchRun(b, Sentinel, 2000, "Ali124", 1000) }
func BenchmarkSimMixed(b *testing.B)  { benchRun(b, RiF, 1000, "Ali2", 1000) }

func BenchmarkFTLWrite(b *testing.B) {
	f := NewFTL(benchConfig(Zero, 0).Geometry)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.Write(int64(i%100000), 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFTLLookupCold(b *testing.B) {
	f := NewFTL(benchConfig(Zero, 0).Geometry)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Lookup(int64(i % 100000))
	}
}
