package replay

import (
	"io"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
)

func smallConfig(scheme ssd.Scheme, pe int) ssd.Config {
	cfg := ssd.DefaultConfig(scheme, pe)
	cfg.Geometry.BlocksPerPlane = 256
	cfg.Geometry.PagesPerBlock = 128
	return cfg
}

func smallGenerator(t *testing.T, name string, seed uint64) *trace.Generator {
	t.Helper()
	spec, err := trace.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	spec.FootprintPages = 1 << 17
	g, err := trace.NewGenerator(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestArrivalProcesses(t *testing.T) {
	if _, err := NewPoisson(0, 1); err == nil {
		t.Fatal("zero Poisson rate accepted")
	}
	if _, err := NewFixed(-5); err == nil {
		t.Fatal("negative fixed rate accepted")
	}
	if _, err := NewTraceScale(0); err == nil {
		t.Fatal("zero trace speedup accepted")
	}

	fx, err := NewFixed(1e6) // 1 µs interarrival
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if got := fx.Next(0); got != sim.Time(i)*sim.Microsecond {
			t.Fatalf("fixed arrival %d at %v", i, got)
		}
	}

	ts, err := NewTraceScale(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.Next(10 * sim.Millisecond); got != 5*sim.Millisecond {
		t.Fatalf("2x speedup gave %v", got)
	}

	po, err := NewPoisson(100000, 7)
	if err != nil {
		t.Fatal(err)
	}
	var last sim.Time
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		at := po.Next(0)
		if at <= last {
			t.Fatalf("non-increasing Poisson arrival %v after %v", at, last)
		}
		sum += float64(at - last)
		last = at
	}
	mean := sum / n // ns; true mean 10 µs
	if mean < 9e3 || mean > 11e3 {
		t.Fatalf("Poisson mean interarrival %vns, want ~10000", mean)
	}
}

func TestFromWorkloadBoundsStream(t *testing.T) {
	src := FromWorkload(smallGenerator(t, "Sys0", 3), 17)
	var n int
	for {
		_, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 17 {
		t.Fatalf("workload source served %d requests", n)
	}
}

func TestRunDeterministic(t *testing.T) {
	mk := func() *Result {
		arr, err := NewPoisson(20000, 11)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(FromWorkload(smallGenerator(t, "Ali124", 5), 800), Options{
			Config:   smallConfig(ssd.RiF, 2000),
			Arrivals: arr,
			AgeDays:  30,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.Requests != b.Requests || a.Metrics.Makespan != b.Metrics.Makespan {
		t.Fatal("replay runs diverged")
	}
	for _, q := range []float64{0.5, 0.99, 0.9999} {
		if a.Latency.Quantile(q) != b.Latency.Quantile(q) {
			t.Fatalf("q=%v diverged", q)
		}
	}
}

func TestRunRespectsRingBound(t *testing.T) {
	// An arrival rate far past the device's service rate must park
	// arrivals instead of growing the in-flight set.
	arr, err := NewFixed(5e6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(ssd.Zero, 0)
	cfg.MaxInFlight = 32
	res, err := Run(FromWorkload(smallGenerator(t, "Sys0", 2), 500), Options{
		Config:   cfg,
		Arrivals: arr,
		AgeDays:  5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.PeakInFlight > 32 {
		t.Fatalf("peak in-flight %d exceeds the ring", res.Metrics.PeakInFlight)
	}
	if res.Metrics.HeldArrivals == 0 {
		t.Fatal("saturating rate held no arrivals")
	}
	if res.Requests != 500 {
		t.Fatalf("replayed %d of 500", res.Requests)
	}
}

func TestRunFromCSVStream(t *testing.T) {
	var sb strings.Builder
	reqs := make([]trace.Request, 120)
	for i := range reqs {
		reqs[i] = trace.Request{
			At: sim.Time(i) * 50 * sim.Microsecond, Op: trace.Read,
			LPN: int64(i * 1000), Pages: 2,
		}
	}
	if err := trace.WriteCSV(&sb, reqs); err != nil {
		t.Fatal(err)
	}
	st, err := trace.NewStream(strings.NewReader(sb.String()), 16384, -1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(st, Options{
		Config:         smallConfig(ssd.Zero, 0),
		AgeDays:        5,
		FootprintPages: 1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 120 {
		t.Fatalf("replayed %d of 120", res.Requests)
	}
	if res.Latency.N() != 120 {
		t.Fatalf("sketch saw %d reads", res.Latency.N())
	}
	if res.Latency != &res.Metrics.ReadLatencies {
		t.Fatal("Result.Latency is not the device's ReadLatencies sketch")
	}
}

func TestRunMaxRequestsTruncates(t *testing.T) {
	res, err := Run(FromWorkload(smallGenerator(t, "Sys0", 4), 1000), Options{
		Config:      smallConfig(ssd.Zero, 0),
		MaxRequests: 64,
		AgeDays:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 64 {
		t.Fatalf("replayed %d, want the 64-request cap", res.Requests)
	}
}

func TestRunSurfacesParseError(t *testing.T) {
	bad := "# arrival_us,op,lpn,pages\n0.000,R,1,1\n10.000,X,2,1\n"
	res, err := Run(trace.NewCSVStream(strings.NewReader(bad)), Options{
		Config:  smallConfig(ssd.Zero, 0),
		AgeDays: 5,
	})
	if err == nil {
		t.Fatalf("bad trace line replayed cleanly: %+v", res)
	}
	if !strings.Contains(err.Error(), "bad op") {
		t.Fatalf("parse error lost: %v", err)
	}
}

func TestRunRejectsEmptyTrace(t *testing.T) {
	if _, err := Run(trace.NewCSVStream(strings.NewReader("")), Options{
		Config: smallConfig(ssd.Zero, 0),
	}); err == nil {
		t.Fatal("empty trace replayed")
	}
}
