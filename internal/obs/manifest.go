package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// Manifest is the machine-readable record of one simulation run: what
// was configured, how long it took (in both clocks), and every final
// instrument value. Serialized to JSON it is the run artifact other
// tooling (perf trackers, dashboards, regression tests) consumes.
type Manifest struct {
	// Tool names the producing binary or harness ("rifsim",
	// "rifserve", "bench").
	Tool string `json:"tool,omitempty"`
	// Experiment names the figure or study the run belongs to.
	Experiment string `json:"experiment,omitempty"`

	// Run identity.
	Scheme   string `json:"scheme,omitempty"`
	Workload string `json:"workload,omitempty"`
	PECycles int    `json:"pe_cycles"`
	Seed     uint64 `json:"seed"`
	Requests int    `json:"requests,omitempty"`
	// RateIOPS is the open-loop arrival intensity of a replay cell
	// (0 for closed-loop runs).
	RateIOPS float64 `json:"rate_iops,omitempty"`

	// Config carries the full simulator configuration when the caller
	// provides one (any JSON-serializable value).
	Config any `json:"config,omitempty"`

	// Clocks: the virtual makespan and the host wall time.
	SimTimeNS  int64   `json:"sim_time_ns"`
	WallTimeS  float64 `json:"wall_time_s"`
	BandwidthM float64 `json:"bandwidth_mbps,omitempty"`

	// Metrics is the final registry snapshot.
	Metrics Snapshot `json:"metrics"`

	// Cell is the run's index in its study grid. It only breaks ties
	// in Runs between runs whose identity keys are all equal (the
	// points of one ablation sweep), so it is not serialized.
	Cell int `json:"-"`
}

// WriteJSON serializes any artifact (a job status, a result table) as
// indented JSON through encoding/json. A Collection has its own
// encoder: Collection.JSON writes the same bytes.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("obs: json encode: %w", err)
	}
	return nil
}

// Collection gathers the manifests of a multi-run experiment (a
// scheme x workload x wear grid). Add is safe for concurrent use —
// the grids run cells in parallel.
type Collection struct {
	mu      sync.Mutex
	runs    []Manifest
	partial bool
	onAdd   func(Manifest)
}

// NewCollection returns an empty collection.
func NewCollection() *Collection { return &Collection{} }

// SetOnAdd registers a hook invoked after every Add with the manifest
// just collected (outside the collection's lock, so the hook may call
// back into the collection). The serving layer uses it to stream
// per-run progress; completion order across a parallel grid is
// scheduler-dependent, so hooks must not feed anything
// order-sensitive. Nil-safe; a nil fn clears the hook.
func (c *Collection) SetOnAdd(fn func(Manifest)) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.onAdd = fn
	c.mu.Unlock()
}

// Add appends one run's manifest. Nil-safe.
func (c *Collection) Add(m Manifest) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.runs = append(c.runs, m)
	fn := c.onAdd
	c.mu.Unlock()
	if fn != nil {
		fn(m)
	}
}

// Runs returns the collected manifests sorted by (experiment, scheme,
// workload, P/E, rate, cell) so output is deterministic regardless of
// completion order.
func (c *Collection) Runs() []Manifest {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := append([]Manifest(nil), c.runs...)
	c.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Experiment != b.Experiment {
			return a.Experiment < b.Experiment
		}
		if a.Scheme != b.Scheme {
			return a.Scheme < b.Scheme
		}
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.PECycles != b.PECycles {
			return a.PECycles < b.PECycles
		}
		if a.RateIOPS != b.RateIOPS {
			return a.RateIOPS < b.RateIOPS
		}
		return a.Cell < b.Cell
	})
	return out
}

// SetPartial marks the collection as an incomplete flush: the run was
// cancelled (timeout, SIGINT) before every cell finished. Nil-safe.
func (c *Collection) SetPartial(v bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.partial = v
	c.mu.Unlock()
}

// Partial reports whether the collection was flushed before the
// experiment completed.
func (c *Collection) Partial() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.partial
}

// Release drops the collected manifests and keeps the partial flag:
// a caller that has rendered the collection and serves those bytes
// frees the manifests behind them. Nil-safe.
func (c *Collection) Release() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.runs = nil
	c.mu.Unlock()
}

// Len reports the number of collected runs.
func (c *Collection) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.runs)
}

// UnmarshalJSON restores a collection written by MarshalJSON.
func (c *Collection) UnmarshalJSON(data []byte) error {
	var raw struct {
		Partial bool       `json:"partial"`
		Runs    []Manifest `json:"runs"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	c.mu.Lock()
	c.runs = raw.Runs
	c.partial = raw.Partial
	c.mu.Unlock()
	return nil
}

// runLabels identifies one run in a multi-run exposition.
func runLabels(m Manifest) map[string]string {
	l := map[string]string{}
	if m.Scheme != "" {
		l["scheme"] = m.Scheme
	}
	if m.Workload != "" {
		l["workload"] = m.Workload
	}
	if m.Experiment != "" {
		l["experiment"] = m.Experiment
	}
	l["pe"] = fmt.Sprintf("%d", m.PECycles)
	return l
}

// WritePrometheus renders every collected run in the Prometheus text
// exposition format, one sample set per run labelled with its
// scheme/workload/experiment/pe.
func (c *Collection) WritePrometheus(w io.Writer) error {
	runs := c.Runs()
	sets := make([]promSet, len(runs))
	for i, m := range runs {
		sets[i] = promSet{labels: runLabels(m), snap: m.Metrics}
	}
	return writePrometheus(w, sets)
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format under one label set.
func (s Snapshot) WritePrometheus(w io.Writer, labels map[string]string) error {
	return writePrometheus(w, []promSet{{labels: labels, snap: s}})
}

// promSet is one labelled snapshot in an exposition.
type promSet struct {
	labels map[string]string
	snap   Snapshot
}

// writePrometheus renders sets in the Prometheus text exposition
// format (version 0.0.4). Each metric name's # TYPE line is emitted
// once (the format forbids duplicates), then every set that has the
// metric contributes its samples under its labels. Counters and gauges
// are single samples; histograms are summaries: the 0.5, 0.9, 0.99 and
// 0.999 quantiles, then _sum and _count.
func writePrometheus(w io.Writer, sets []promSet) error {
	// A bufio.Writer keeps its first write error and Flush returns it,
	// so the writes below need no checks of their own.
	bw := bufio.NewWriter(w)
	scalars := func(kind string, values func(Snapshot) map[string]int64) {
		for _, name := range unionKeys(sets, values) {
			n := promName(name)
			fmt.Fprintf(bw, "# TYPE %s %s\n", n, kind)
			for _, set := range sets {
				if v, ok := values(set.snap)[name]; ok {
					fmt.Fprintf(bw, "%s%s %d\n", n, promLabels(set.labels), v)
				}
			}
		}
	}
	scalars("counter", func(s Snapshot) map[string]int64 { return s.Counters })
	scalars("gauge", func(s Snapshot) map[string]int64 { return s.Gauges })
	hists := func(s Snapshot) map[string]HistogramSnapshot { return s.Histograms }
	for _, name := range unionKeys(sets, hists) {
		n := promName(name)
		fmt.Fprintf(bw, "# TYPE %s summary\n", n)
		for _, set := range sets {
			h, ok := set.snap.Histograms[name]
			if !ok {
				continue
			}
			for _, q := range [...]struct {
				label string
				v     float64
			}{{"0.5", h.P50}, {"0.9", h.P90}, {"0.99", h.P99}, {"0.999", h.P999}} {
				fmt.Fprintf(bw, "%s%s %g\n", n, promLabels(withLabel(set.labels, "quantile", q.label)), q.v)
			}
			lbl := promLabels(set.labels)
			fmt.Fprintf(bw, "%s_sum%s %g\n%s_count%s %d\n", n, lbl, h.Mean*float64(h.Count), n, lbl, h.Count)
		}
	}
	return bw.Flush()
}

// unionKeys returns, sorted, every name the sets' instrument maps
// hold.
func unionKeys[V any](sets []promSet, instruments func(Snapshot) map[string]V) []string {
	names := map[string]bool{}
	for _, set := range sets {
		for k := range instruments(set.snap) {
			names[k] = true
		}
	}
	return sortedKeys(nil, names)
}

var promInvalid = regexp.MustCompile(`[^a-zA-Z0-9_:]`)

// promName sanitizes a metric name for the Prometheus exposition
// format (letters, digits, underscores and colons only).
func promName(name string) string {
	s := promInvalid.ReplaceAllString(name, "_")
	if s == "" || (s[0] >= '0' && s[0] <= '9') {
		s = "_" + s
	}
	return s
}

// promLabelValue escapes a label value per the Prometheus text
// exposition format: exactly backslash, double-quote and newline are
// escaped (as \\, \" and \n); every other byte — tabs, high Unicode —
// passes through as raw UTF-8. Go's %q is NOT equivalent: it emits
// \t, \xNN and \uNNNN escapes the format does not define, so a trace
// name or fault label containing such bytes would render as malformed
// exposition text.
var promLabelValue = strings.NewReplacer(
	`\`, `\\`,
	`"`, `\"`,
	"\n", `\n`,
)

// promLabels renders a label set as {k="v",...} (empty for none) with
// values escaped for the exposition format.
func promLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := sortedKeys(nil, labels)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(promName(k))
		b.WriteString(`="`)
		promLabelValue.WriteString(&b, labels[k])
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// withLabel returns labels plus one more label.
func withLabel(labels map[string]string, k, v string) map[string]string {
	merged := make(map[string]string, len(labels)+1)
	for lk, lv := range labels {
		merged[lk] = lv
	}
	merged[k] = v
	return merged
}
