package replay

import (
	"io"
	"strings"
	"testing"

	"repro/internal/obs"
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
	res, err := Run(FromWorkload(smallGenerator(t, "Sys0", 2), 500), Options{
		Config:      smallConfig(ssd.Zero, 0),
		Arrivals:    arr,
		MaxInFlight: 32,
		AgeDays:     5,
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

func TestRunRejectsNegativeMaxInFlight(t *testing.T) {
	_, err := Run(FromWorkload(smallGenerator(t, "Sys0", 1), 10), Options{
		Config:      smallConfig(ssd.Zero, 0),
		MaxInFlight: -1,
	})
	if err == nil || !strings.Contains(err.Error(), "in-flight") {
		t.Fatalf("negative MaxInFlight: err = %v, want an in-flight error", err)
	}
}

// TestRunRejectsOutOfRangeLPN replays a trace line whose pages run
// past int64, as a write and as a read: the device rejects the
// request at its port and the replay returns the error instead of
// panicking mid-simulation.
func TestRunRejectsOutOfRangeLPN(t *testing.T) {
	for _, line := range []string{"0,W,9223372036854775806,4\n", "0,R,9223372036854775806,4\n"} {
		res, err := Run(trace.NewCSVStream(strings.NewReader(line)), Options{
			Config:  smallConfig(ssd.Zero, 0),
			AgeDays: 5,
		})
		if err == nil || !strings.Contains(err.Error(), "outside the device") {
			t.Fatalf("%q: replay = (%+v, %v), want an out-of-range error", line, res, err)
		}
	}
}

// notFolded is a source that fails the test if the registry holds a
// read-latency histogram while the replay still pulls requests.
type notFolded struct {
	Source
	t   *testing.T
	reg *obs.Registry
}

func (s notFolded) Next() (trace.Request, error) {
	if _, ok := s.reg.Snapshot().Histograms["ssd_read_latency_us"]; ok {
		s.t.Fatal("ssd_read_latency_us is in the registry before drain")
	}
	return s.Source.Next()
}

// TestRunFoldsReadLatenciesAtDrain checks the open-loop host leaves
// the registry's ssd_read_latency_us to the drain fold, which merges
// the replay's own latency sketch exactly.
func TestRunFoldsReadLatenciesAtDrain(t *testing.T) {
	arr, err := NewPoisson(20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(ssd.RiF, 2000)
	cfg.Obs = obs.NewRegistry()
	src := notFolded{FromWorkload(smallGenerator(t, "Ali124", 3), 400), t, cfg.Obs}
	res, err := Run(src, Options{Config: cfg, Arrivals: arr})
	if err != nil {
		t.Fatal(err)
	}
	h := cfg.Obs.Snapshot().Histograms["ssd_read_latency_us"]
	if h.Count == 0 || h.Count != res.Latency.N() ||
		h.P50 != res.Latency.Quantile(0.5) || h.P99 != res.Latency.Quantile(0.99) {
		t.Fatalf("folded n=%d p50=%v p99=%v, replay sketch n=%d p50=%v p99=%v",
			h.Count, h.P50, h.P99, res.Latency.N(), res.Latency.Quantile(0.5), res.Latency.Quantile(0.99))
	}
}
