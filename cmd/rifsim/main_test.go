package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ldpc"
	"repro/internal/nand"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// TestUnknownFigListsValidExperiments pins the CLI contract: a typo'd
// -fig value must name every valid figure and ablation in the error.
func TestUnknownFigListsValidExperiments(t *testing.T) {
	err := core.RunExperiment(io.Discard, "bogus", core.DefaultRunParams())
	if err == nil {
		t.Fatal("unknown figure did not error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"bogus"`) {
		t.Errorf("error does not echo the bad value: %q", msg)
	}
	for _, fig := range core.ValidExperiments() {
		if !strings.Contains(msg, fig) {
			t.Errorf("error does not list valid figure %q: %q", fig, msg)
		}
	}
}

// TestValidFigsAreAccepted ensures the advertised list and the
// dispatcher stay in sync: every advertised figure must be dispatchable (we use
// a zero-request params so runs fail fast with a non-"unknown" error
// rather than simulating).
func TestValidFigsAreAccepted(t *testing.T) {
	p := core.RunParams{} // invalid sizing: experiments fail fast
	for _, fig := range core.ValidExperiments() {
		err := core.RunExperiment(io.Discard, fig, p)
		if err != nil && strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("advertised figure %q rejected as unknown", fig)
		}
	}
}

// TestWriteAlist reads the -alist export back: the LDPC rows' shrunken
// code is the paper's 4x36 block shape at circulant 256.
func TestWriteAlist(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.alist")
	if err := writeAlist(path, core.DefaultRunParams()); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := ldpc.ReadAlistStats(f)
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 36*256 || st.M != 4*256 {
		t.Fatalf("alist is %dx%d, want %dx%d", st.M, st.N, 4*256, 36*256)
	}
}

// TestValidateFlags pins the CLI-side numeric guards: an explicit
// -workers 0 (or any negative sizing) must fail fast at flag-parse
// time instead of deadlocking or misbehaving deep inside a study.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		workers, requests int
		ok                bool
	}{
		{1, 1, true},
		{8, 3000, true},
		{0, 3000, false},
		{-2, 3000, false},
		{4, 0, false},
		{4, -10, false},
	} {
		err := validateFlags(tc.workers, tc.requests)
		if tc.ok && err != nil {
			t.Errorf("validateFlags(%d, %d) = %v, want nil", tc.workers, tc.requests, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("validateFlags(%d, %d) accepted", tc.workers, tc.requests)
		}
	}
}

// TestParseRates pins the -rate/-rates ladder parsing: mutual
// exclusion, positivity, and nil (= trace timestamps) when neither is
// set.
func TestParseRates(t *testing.T) {
	for _, tc := range []struct {
		rate  float64
		rates string
		want  []float64
		ok    bool
	}{
		{0, "", nil, true},
		{25000, "", []float64{25000}, true},
		{0, "10000,20000, 30000", []float64{10000, 20000, 30000}, true},
		{25000, "10000,20000", nil, false}, // mutually exclusive
		{-5, "", nil, false},
		{0, "10000,bogus", nil, false},
		{0, "10000,-2", nil, false},
	} {
		got, err := parseRates(tc.rate, tc.rates)
		if tc.ok && err != nil {
			t.Errorf("parseRates(%v, %q) = %v, want nil error", tc.rate, tc.rates, err)
			continue
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("parseRates(%v, %q) accepted", tc.rate, tc.rates)
			}
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseRates(%v, %q) = %v, want %v", tc.rate, tc.rates, got, tc.want)
		}
	}
}

// writeTempTrace synthesizes a small native-format trace file.
func writeTempTrace(t *testing.T, n int) string {
	t.Helper()
	spec, err := trace.ByName("Ali124")
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.NewGenerator(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]trace.Request, n)
	for i := range reqs {
		reqs[i] = g.Next()
		reqs[i].At = sim.Time(i) * 25 * sim.Microsecond
	}
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunReplayEndToEnd drives the -replay path over a real file: one
// cell per ladder rung, table header, and the trace fully consumed.
func TestRunReplayEndToEnd(t *testing.T) {
	path := writeTempTrace(t, 150)
	p := core.DefaultRunParams()
	p.Workers = 2
	var buf bytes.Buffer
	err := runReplay(&buf, p, replayOptions{
		file:   path,
		rates:  "20000,40000",
		speed:  1,
		scheme: "RiFSSD",
		pe:     2000,
		age:    30,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "Open-loop replay of "+path) {
		t.Errorf("missing report header:\n%s", got)
	}
	for _, want := range []string{"rateIOPS", "p99.99us", "20000", "40000"} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
}

// TestRunReplayRejections pins the fail-fast paths: unknown scheme,
// bad ladder, multi-rate stdin sweep, missing file.
func TestRunReplayRejections(t *testing.T) {
	p := core.DefaultRunParams()
	base := replayOptions{file: "nope.csv", speed: 1, scheme: "RiFSSD", pe: 2000}

	o := base
	o.scheme = "NotAScheme"
	if err := runReplay(io.Discard, p, o); err == nil || !strings.Contains(err.Error(), "NotAScheme") {
		t.Errorf("unknown scheme: err = %v", err)
	}

	o = base
	o.rates = "10,bogus"
	if err := runReplay(io.Discard, p, o); err == nil {
		t.Error("bad -rates accepted")
	}

	o = base
	o.file, o.rates = "-", "10000,20000"
	if err := runReplay(io.Discard, p, o); err == nil || !strings.Contains(err.Error(), "stdin") {
		t.Errorf("stdin multi-rate sweep: err = %v", err)
	}

	o = base
	o.rate = 10000
	if err := runReplay(io.Discard, p, o); err == nil {
		t.Error("missing trace file accepted")
	}
}

// TestRunReplayMSRSampleEndToEnd drives -replay over the checked-in
// MSR-Cambridge sample (internal/trace/testdata): format sniffing,
// byte-to-page conversion, and the open-loop sweep all the way to the
// tail-latency table. Together with the trace package's parsing pin,
// this keeps a real-world-format trace working end to end.
func TestRunReplayMSRSampleEndToEnd(t *testing.T) {
	path := filepath.Join("..", "..", "internal", "trace", "testdata", "msr-sample.csv")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checked-in MSR sample missing: %v", err)
	}
	p := core.DefaultRunParams()
	p.Workers = 2
	var buf bytes.Buffer
	err := runReplay(&buf, p, replayOptions{
		file:   path,
		rates:  "5000,20000",
		speed:  1,
		scheme: "RiFSSD",
		pe:     2000,
		age:    30,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "Open-loop replay of "+path) {
		t.Errorf("missing report header:\n%s", got)
	}
	for _, want := range []string{"rateIOPS", "5000", "20000"} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
	// FormatTailSweep does not print request counts, so pin full trace
	// consumption through the same sweep path the CLI took: every cell
	// must have replayed all 24 sample rows.
	scheme, err := ssd.SchemeByName("RiFSSD")
	if err != nil {
		t.Fatal(err)
	}
	pageBytes := nand.PaperGeometry().PageBytes
	pts, err := core.ReplaySweep(p, core.ReplayParams{
		Open: func() (replay.Source, io.Closer, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, nil, err
			}
			src, err := trace.NewStream(f, pageBytes, -1)
			if err != nil {
				f.Close()
				return nil, nil, err
			}
			return src, f, nil
		},
		Workload:       path,
		Scheme:         scheme,
		PECycles:       2000,
		Rates:          []float64{5000, 20000},
		AgeDays:        30,
		FootprintPages: p.FootprintPages,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		if pt.Requests != 24 {
			t.Errorf("rate %v cell replayed %d requests, want all 24", pt.RateIOPS, pt.Requests)
		}
	}
}
