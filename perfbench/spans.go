package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a module, recorded from the benchmark's
// own files. Item is the cell, window, codeword or job the call served.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Item   int64  `json:"item"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 from a nil tracer).
func (t *tracer) begin(name string, parent int32, item int64) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Item: item, Start: now})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// record adds a span whose bounds were observed elsewhere (a progress
// callback, a streamed event) and returns its id.
func (t *tracer) record(name string, parent int32, item int64, start, end time.Time) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Item: item,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// selfStat sums the spans of one name. Self time is a span's duration
// minus the time its child spans cover; children of one span never
// overlap, because each parent issues its calls one after another.
type selfStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) selfTimes() []selfStat {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*selfStat{}
	for _, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfStat{Name: s.Name}
			byName[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.TotalMS += float64(d) / 1e6
		st.SelfMS += float64(d-child[s.ID]) / 1e6
	}
	out := make([]selfStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// write saves every span and the per-name self times as one JSON file.
func (t *tracer) write(path, workload string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Workload string     `json:"workload"`
		Seed     uint64     `json:"seed"`
		SelfTime []selfStat `json:"self_time"`
		Spans    []span     `json:"spans"`
	}{workload, seed, t.selfTimes(), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
