package ssd

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

type spanWorkload struct{}

func (spanWorkload) Next() trace.Request {
	return trace.Request{Op: trace.Read, LPN: 0, Pages: 8}
}
func (spanWorkload) InitialAgeDays(lpn int64) float64 {
	if lpn < 4 {
		return 25
	}
	return 0.02
}

func spanConfig(scheme Scheme) Config {
	cfg := smallConfig(scheme, 1000)
	cfg.Geometry.Channels = 1
	cfg.Geometry.DiesPerChan = 2
	cfg.QueueDepth = 1
	cfg.Timing.THostPage = 0
	return cfg
}

// TestSpansRecorded runs the Fig. 7 scenario on a tracer: every
// station's row appears and the stressed command A shows its retry A'.
func TestSpansRecorded(t *testing.T) {
	tr := obs.NewTracer(1 << 10)
	cfg := spanConfig(One)
	cfg.Trace = tr
	s, err := New(cfg, spanWorkload{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(1); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d spans", tr.Dropped())
	}
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	resources := map[string]bool{}
	labels := map[string]bool{}
	for i, sp := range spans {
		resources[sp.Resource] = true
		labels[sp.Label] = true
		if sp.End < sp.Start {
			t.Fatalf("span %d reversed: %+v", i, sp)
		}
		if i > 0 && sp.Start < spans[i-1].Start {
			t.Fatal("spans not sorted by start")
		}
	}
	for _, want := range []string{"die0", "die1", "ch0", "ecc-ch0"} {
		if !resources[want] {
			t.Fatalf("resource %q missing from spans (have %v)", want, resources)
		}
	}
	// The stressed command A must show a retry label A'.
	if !labels["A"] || !labels["A'"] {
		t.Fatalf("labels missing: %v", labels)
	}
}

func TestCmdLabelSequence(t *testing.T) {
	if cmdLabel(0) != "A" || cmdLabel(25) != "Z" {
		t.Fatal("single-letter labels wrong")
	}
	if cmdLabel(26) != "A1" || cmdLabel(53) != "B2" {
		t.Fatalf("wrapped labels wrong: %q %q", cmdLabel(26), cmdLabel(53))
	}
}
