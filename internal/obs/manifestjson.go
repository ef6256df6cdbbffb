package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"unicode/utf8"
)

// JSON renders the collection as WriteJSON writes it: indented by one
// space per level, with a trailing newline. The bytes are sized exactly
// (len == cap), since a finished job keeps them for its lifetime.
func (c *Collection) JSON() ([]byte, error) {
	b, err := c.render(true)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// WriteJSON writes the collection as JSON returns it.
func (c *Collection) WriteJSON(w io.Writer) error {
	b, err := c.render(true)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// WriteFile writes the collection as JSON returns it to a file.
func (c *Collection) WriteFile(path string) error {
	b, err := c.render(true)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o666); err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	return nil
}

// MarshalJSON serializes the collection as {"runs": [...]}, with
// "partial": true when the flush preceded completion: JSON's bytes,
// compact.
func (c *Collection) MarshalJSON() ([]byte, error) {
	return c.render(false)
}

// render encodes the collection into a buffer of its own, which
// starts with room for a typical run (about 5 KB) and is sized for the
// rest after the first.
func (c *Collection) render(indent bool) ([]byte, error) {
	e := manifestEncoder{b: make([]byte, 0, 8<<10), indent: indent}
	if err := e.collection(c.Partial(), c.Runs()); err != nil {
		return nil, fmt.Errorf("obs: json encode: %w", err)
	}
	return e.b, nil
}

// manifestEncoder appends the manifest format by hand, in one pass and
// without reflection: byte for byte what encoding/json writes for a
// Collection, compact or (indent) as an Encoder with SetIndent("", " ")
// writes it. Only Manifest.Config, which may hold any value, goes
// through json.Marshal.
type manifestEncoder struct {
	b      []byte
	indent bool
	depth  int  // open objects and arrays
	first  bool // the innermost open one has no element yet
	// The sorted key order of each instrument kind in the last
	// manifest: the runs of a collection mostly register the same
	// instruments, so each order is sorted once (see keyOrder).
	counterKeys, gaugeKeys, histKeys []string
	err                              error
}

// collection appends {"partial": true, "runs": [...]}. A nil runs is
// null, as encoding/json writes a nil slice.
func (e *manifestEncoder) collection(partial bool, runs []Manifest) error {
	e.open('{')
	if partial {
		e.key("partial")
		e.b = append(e.b, "true"...)
	}
	e.key("runs")
	if runs == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.open('[')
		for i := range runs {
			e.elem()
			start := len(e.b)
			e.manifest(&runs[i])
			if i == 0 {
				// Size the buffer for the rest from the first run, so it
				// grows once rather than by doubling.
				e.b = slices.Grow(e.b, (len(runs)-1)*(len(e.b)-start)*9/8)
			}
		}
		e.close(']')
	}
	e.close('}')
	if e.indent {
		e.b = append(e.b, '\n')
	}
	return e.err
}

func (e *manifestEncoder) manifest(m *Manifest) {
	e.open('{')
	e.optString("tool", m.Tool)
	e.optString("experiment", m.Experiment)
	e.optString("scheme", m.Scheme)
	e.optString("workload", m.Workload)
	e.key("pe_cycles")
	e.b = strconv.AppendInt(e.b, int64(m.PECycles), 10)
	e.key("seed")
	e.b = strconv.AppendUint(e.b, m.Seed, 10)
	if m.Requests != 0 {
		e.key("requests")
		e.b = strconv.AppendInt(e.b, int64(m.Requests), 10)
	}
	if m.RateIOPS != 0 {
		e.key("rate_iops")
		e.float(m.RateIOPS)
	}
	if m.Config != nil {
		e.key("config")
		e.config(m.Config)
	}
	e.key("sim_time_ns")
	e.b = strconv.AppendInt(e.b, m.SimTimeNS, 10)
	e.key("wall_time_s")
	e.float(m.WallTimeS)
	if m.BandwidthM != 0 {
		e.key("bandwidth_mbps")
		e.float(m.BandwidthM)
	}
	e.key("metrics")
	e.snapshot(&m.Metrics)
	e.close('}')
}

func (e *manifestEncoder) snapshot(s *Snapshot) {
	e.open('{')
	if len(s.Counters) > 0 {
		e.key("counters")
		e.ints(&e.counterKeys, s.Counters)
	}
	if len(s.Gauges) > 0 {
		e.key("gauges")
		e.ints(&e.gaugeKeys, s.Gauges)
	}
	if len(s.Histograms) > 0 {
		e.key("histograms")
		e.open('{')
		for _, k := range keyOrder(&e.histKeys, s.Histograms) {
			e.elem()
			e.string(k)
			e.colon()
			e.histogram(s.Histograms[k])
		}
		e.close('}')
	}
	e.close('}')
}

// keyOrder returns m's keys in order, reusing *last, the order of the
// kind's previous map, when m holds exactly its keys: as many of them,
// and every one (last's keys are distinct, so the two sets are then
// equal). Otherwise it sorts m's keys into last's storage.
func keyOrder[V any](last *[]string, m map[string]V) []string {
	if len(*last) == len(m) && hasAll(m, *last) {
		return *last
	}
	*last = sortedKeys(*last, m)
	return *last
}

func hasAll[V any](m map[string]V, keys []string) bool {
	for _, k := range keys {
		if _, ok := m[k]; !ok {
			return false
		}
	}
	return true
}

func (e *manifestEncoder) ints(order *[]string, m map[string]int64) {
	e.open('{')
	for _, k := range keyOrder(order, m) {
		e.elem()
		e.string(k)
		e.colon()
		e.b = strconv.AppendInt(e.b, m[k], 10)
	}
	e.close('}')
}

func (e *manifestEncoder) histogram(h HistogramSnapshot) {
	e.open('{')
	e.key("count")
	e.b = strconv.AppendInt(e.b, h.Count, 10)
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"mean", h.Mean}, {"min", h.Min}, {"max", h.Max}, {"p50", h.P50}, {"p90", h.P90}, {"p99", h.P99}, {"p999", h.P999}} {
		e.key(f.name)
		e.float(f.v)
	}
	e.close('}')
}

// config appends the json.Marshal encoding of v, indented in place
// at the current depth.
func (e *manifestEncoder) config(v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		e.fail(err)
		return
	}
	if !e.indent {
		e.b = append(e.b, raw...)
		return
	}
	// json.Indent asks for twice the input's room; reserving it here
	// keeps the buffer from doubling.
	buf := bytes.NewBuffer(slices.Grow(e.b, 2*len(raw)))
	if err := json.Indent(buf, raw, indentSpaces[:e.depth], " "); err != nil {
		e.fail(err)
		return
	}
	e.b = buf.Bytes()
}

// indentSpaces holds the indentation prefixes: a manifest's config
// sits at depth 3.
const indentSpaces = "        "

func (e *manifestEncoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *manifestEncoder) open(c byte) {
	e.b = append(e.b, c)
	e.depth++
	e.first = true
}

// close ends the innermost object or array; an empty one stays {} or
// [].
func (e *manifestEncoder) close(c byte) {
	e.depth--
	if !e.first {
		e.newline()
	}
	e.first = false
	e.b = append(e.b, c)
}

// elem starts an element of the innermost object or array.
func (e *manifestEncoder) elem() {
	if !e.first {
		e.b = append(e.b, ',')
	}
	e.first = false
	e.newline()
}

func (e *manifestEncoder) newline() {
	if e.indent {
		e.b = append(e.b, '\n')
		e.b = append(e.b, indentSpaces[:e.depth]...)
	}
}

// key starts a struct field; its name needs no escaping.
func (e *manifestEncoder) key(name string) {
	e.elem()
	e.b = append(e.b, '"')
	e.b = append(e.b, name...)
	e.b = append(e.b, '"')
	e.colon()
}

func (e *manifestEncoder) colon() {
	e.b = append(e.b, ':')
	if e.indent {
		e.b = append(e.b, ' ')
	}
}

func (e *manifestEncoder) optString(name, s string) {
	if s != "" {
		e.key(name)
		e.string(s)
	}
}

// float appends f as encoding/json does: like %g, but 'f' from 1e-6
// up to 1e21 and an exponent without a leading zero. NaN and ±Inf are
// an error.
func (e *manifestEncoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.fail(&json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)})
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	e.b = b
}

// string appends s quoted. Metric and run names are plain ASCII; a
// string with a byte encoding/json escapes, or any non-ASCII byte, takes
// json.Marshal's quoting (HTML-safe, invalid UTF-8 as \ufffd, U+2028
// and U+2029 escaped).
func (e *manifestEncoder) string(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}
