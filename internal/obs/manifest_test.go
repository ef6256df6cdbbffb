package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

func sampleManifest(scheme string, pe int) Manifest {
	r := NewRegistry()
	r.Counter("ssd_page_reads_total").Add(1234)
	r.Gauge("ssd_die_queue_depth_highwater").SetMax(17)
	h := r.Histogram("ssd_read_latency_us")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	return Manifest{
		Tool:       "rifsim",
		Experiment: "fig17",
		Scheme:     scheme,
		Workload:   "Ali124",
		PECycles:   pe,
		Seed:       1,
		Requests:   3000,
		SimTimeNS:  987654321,
		WallTimeS:  0.25,
		BandwidthM: 812.5,
		Metrics:    r.Snapshot(),
	}
}

// TestManifestRoundTrip serializes a collection and restores it,
// asserting run identity and every instrument survive the trip.
func TestManifestRoundTrip(t *testing.T) {
	c := NewCollection()
	c.Add(sampleManifest("RiFSSD", 2000))
	c.Add(sampleManifest("SENC", 0))

	dir := t.TempDir()
	path := filepath.Join(dir, "runs.json")
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back Collection
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("restored %d runs, want 2", back.Len())
	}
	runs := back.Runs()
	// Runs() sorts by scheme: RiFSSD before SENC.
	m := runs[0]
	if m.Scheme != "RiFSSD" || m.Workload != "Ali124" || m.PECycles != 2000 {
		t.Fatalf("run identity lost: %+v", m)
	}
	if m.Tool != "rifsim" || m.Experiment != "fig17" || m.Seed != 1 || m.Requests != 3000 {
		t.Fatalf("run provenance lost: %+v", m)
	}
	if m.SimTimeNS != 987654321 || m.WallTimeS != 0.25 || m.BandwidthM != 812.5 {
		t.Fatalf("run clocks lost: %+v", m)
	}
	if got := m.Metrics.Counters["ssd_page_reads_total"]; got != 1234 {
		t.Fatalf("counter lost: %d", got)
	}
	if got := m.Metrics.Gauges["ssd_die_queue_depth_highwater"]; got != 17 {
		t.Fatalf("gauge lost: %d", got)
	}
	h := m.Metrics.Histograms["ssd_read_latency_us"]
	if h != sampleManifest("", 0).Metrics.Histograms["ssd_read_latency_us"] || h.Count != 100 || h.Min != 1 || h.Max != 100 {
		t.Fatalf("histogram summary lost: %+v", h)
	}
}

// TestSnapshotPrometheus checks the single-snapshot exposition: TYPE
// lines, label rendering, and a histogram as a summary whose quantile
// samples come in order, followed by _sum and _count.
func TestSnapshotPrometheus(t *testing.T) {
	m := sampleManifest("RiFSSD", 2000)
	var buf bytes.Buffer
	if err := m.Metrics.WritePrometheus(&buf, map[string]string{"scheme": "RiFSSD"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE ssd_page_reads_total counter\n" + `ssd_page_reads_total{scheme="RiFSSD"} 1234`,
		"# TYPE ssd_die_queue_depth_highwater gauge\n" + `ssd_die_queue_depth_highwater{scheme="RiFSSD"} 17`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	h := m.Metrics.Histograms["ssd_read_latency_us"]
	summary := fmt.Sprintf(`# TYPE ssd_read_latency_us summary
ssd_read_latency_us{quantile="0.5",scheme="RiFSSD"} %g
ssd_read_latency_us{quantile="0.9",scheme="RiFSSD"} %g
ssd_read_latency_us{quantile="0.99",scheme="RiFSSD"} %g
ssd_read_latency_us{quantile="0.999",scheme="RiFSSD"} %g
ssd_read_latency_us_sum{scheme="RiFSSD"} 5050
ssd_read_latency_us_count{scheme="RiFSSD"} 100
`, h.P50, h.P90, h.P99, h.P999)
	if !strings.HasSuffix(out, summary) {
		t.Fatalf("summary block:\n%s\nwant it to end with:\n%s", out, summary)
	}
}

// TestSnapshotPrometheusIsOneRunCollection pins the single writer:
// a snapshot's exposition is a one-run collection's under the same
// labels.
func TestSnapshotPrometheusIsOneRunCollection(t *testing.T) {
	m := sampleManifest("RiFSSD", 2000)
	c := NewCollection()
	c.Add(m)
	var one, coll bytes.Buffer
	if err := m.Metrics.WritePrometheus(&one, runLabels(m)); err != nil {
		t.Fatal(err)
	}
	if err := c.WritePrometheus(&coll); err != nil {
		t.Fatal(err)
	}
	if one.String() != coll.String() {
		t.Fatalf("snapshot exposition:\n%s\none-run collection:\n%s", one.String(), coll.String())
	}
}

// TestCollectionPrometheus checks the multi-run exposition: one TYPE
// line per metric, one labelled sample per run.
func TestCollectionPrometheus(t *testing.T) {
	c := NewCollection()
	c.Add(sampleManifest("RiFSSD", 2000))
	c.Add(sampleManifest("SENC", 0))
	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, typ := range []string{"# TYPE ssd_page_reads_total counter", "# TYPE ssd_read_latency_us summary"} {
		if got := strings.Count(out, typ); got != 1 {
			t.Fatalf("%q emitted %d times, want exactly 1", typ, got)
		}
	}
	if got := strings.Count(out, "ssd_read_latency_us_count{"); got != 2 {
		t.Fatalf("summary _count emitted for %d runs, want 2", got)
	}
	for _, want := range []string{`scheme="RiFSSD"`, `scheme="SENC"`, `pe="2000"`, `pe="0"`} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing label %s", want)
		}
	}
}

func TestPromNameSanitization(t *testing.T) {
	for in, want := range map[string]string{
		"ok_name":    "ok_name",
		"with-dash":  "with_dash",
		"with.dot":   "with_dot",
		"9starts":    "_9starts",
		"ns:counter": "ns:counter",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSnapshotFormat(t *testing.T) {
	m := sampleManifest("RiFSSD", 2000)
	out := m.Metrics.Format()
	for _, want := range []string{"counters:", "gauges:", "histograms:", "ssd_page_reads_total", "n=100"} {
		if !strings.Contains(out, want) {
			t.Errorf("terminal summary missing %q in:\n%s", want, out)
		}
	}
}
