package ssd

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestObsChannelCountersMatchMetrics pins the acceptance criterion
// that the registry's per-channel IDLE/COR/UNCOR/ECCWAIT nanosecond
// totals agree exactly with the Metrics.Channels breakdown the Fig. 18
// report prints.
func TestObsChannelCountersMatchMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := smallConfig(Sentinel, 2000)
	cfg.Obs = reg
	m := run(t, cfg, smallWorkload(t, "Ali124", 1), 400)

	s := reg.Snapshot()
	sum := func(metric string) sim.Time {
		var total int64
		for ch := 0; ; ch++ {
			key := fmt.Sprintf("ssd_ch%d_%s", ch, metric)
			v, ok := s.Counters[key]
			if !ok {
				break
			}
			total += v
		}
		return sim.Time(total)
	}
	if got := sum("idle_ns"); got != m.Channels.Idle() {
		t.Errorf("idle: registry %v, metrics %v", got, m.Channels.Idle())
	}
	if got := sum("cor_ns"); got != m.Channels.Cor {
		t.Errorf("cor: registry %v, metrics %v", got, m.Channels.Cor)
	}
	if got := sum("uncor_ns"); got != m.Channels.Uncor {
		t.Errorf("uncor: registry %v, metrics %v", got, m.Channels.Uncor)
	}
	if got := sum("eccwait_ns"); got != m.Channels.ECCWait {
		t.Errorf("eccwait: registry %v, metrics %v", got, m.Channels.ECCWait)
	}
	if got := sum("write_ns"); got != m.Channels.Write {
		t.Errorf("write: registry %v, metrics %v", got, m.Channels.Write)
	}
	if got := sum("total_ns"); got != m.Channels.Total {
		t.Errorf("total: registry %v, metrics %v", got, m.Channels.Total)
	}

	// The scalar fold must mirror the metrics struct.
	if got := s.Counters["ssd_requests_completed_total"]; got != int64(m.RequestsCompleted) {
		t.Errorf("requests: registry %d, metrics %d", got, m.RequestsCompleted)
	}
	if got := s.Counters["ssd_page_reads_total"]; got != m.PageReads {
		t.Errorf("page reads: registry %d, metrics %d", got, m.PageReads)
	}
	if got := s.Counters["sim_events_processed_total"]; got <= 0 {
		t.Errorf("sim events = %d, want > 0", got)
	}
	if got := s.Gauges["sim_event_heap_highwater"]; got <= 0 {
		t.Errorf("heap high-water = %d, want > 0", got)
	}
	// Folded sketches: the read-latency histogram is ReadLatencies,
	// and every decode recorded its tECC (at least one per page read).
	checkFolded(t, reg, m)
	if got := s.Histograms["ecc_decode_latency_us"].Count; got < m.PageReads {
		t.Errorf("decode histogram n = %d, page reads %d", got, m.PageReads)
	}
}

// TestObsConfusionMatrixFig14 runs the full RiF SSD at heavy wear and
// checks (a) the confusion matrix is internally consistent with the
// prediction counters and (b) its realized accuracy on uncorrectable
// pages reproduces the paper's Fig. 14 headline (98.7% for the
// approximate hardware RP, with a tolerance band for sampling noise).
func TestObsConfusionMatrixFig14(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := smallConfig(RiF, 2000)
	cfg.Obs = reg
	m := run(t, cfg, smallWorkload(t, "Ali124", 1), 1200)

	c := m.Confusion
	if c.Predictions() != m.Predictions {
		t.Fatalf("confusion total %d != predictions %d", c.Predictions(), m.Predictions)
	}
	if c.Mispredictions() != m.Mispredictions {
		t.Fatalf("confusion FP+FN %d != mispredictions %d", c.Mispredictions(), m.Mispredictions)
	}
	if c.TP+c.FN == 0 {
		t.Fatal("no uncorrectable pages sampled; the wear state should produce retries")
	}

	// Fig. 14: the approximate RP stays in the 98.7%-accuracy band on
	// uncorrectable pages. The simulator draws from the calibrated
	// accuracy model; with a few thousand uncorrectable pages sampled
	// the realized rate sits within a fraction of a percent of it
	// (measured 0.989 at this seed).
	acc := c.UncorrectableAccuracy()
	if acc < 0.975 || acc > 0.998 {
		t.Errorf("uncorrectable-page accuracy %.4f outside the Fig. 14 band [0.975, 0.998]", acc)
	}
	overall := c.Accuracy()
	if overall < 0.98 {
		t.Errorf("overall RP accuracy %.4f, want >= 0.98", overall)
	}

	// And the registry carries the same four cells.
	s := reg.Snapshot()
	if s.Counters["odear_rp_tp_total"] != c.TP ||
		s.Counters["odear_rp_fp_total"] != c.FP ||
		s.Counters["odear_rp_fn_total"] != c.FN ||
		s.Counters["odear_rp_tn_total"] != c.TN {
		t.Errorf("registry confusion cells diverge from metrics: %+v vs %v", s.Counters, c)
	}
	if s.Counters["odear_rvs_rereads_total"] != m.RVSRereads {
		t.Errorf("RVS re-reads: registry %d, metrics %d", s.Counters["odear_rvs_rereads_total"], m.RVSRereads)
	}
	if m.RVSRereads <= 0 {
		t.Error("RiF at 2K P/E performed no in-die re-reads")
	}
}

// TestObsTracerCapturesSpans checks Config.Trace records die, channel
// and ECC occupancies.
func TestObsTracerCapturesSpans(t *testing.T) {
	tr := obs.NewTracer(1 << 14)
	cfg := smallConfig(One, 2000)
	cfg.Trace = tr
	run(t, cfg, smallWorkload(t, "Ali124", 1), 200)

	if tr.Len() == 0 {
		t.Fatal("tracer captured no spans")
	}
	kinds := map[string]bool{}
	for _, sp := range tr.Spans() {
		if sp.End < sp.Start {
			t.Fatalf("span ends before it starts: %+v", sp)
		}
		switch {
		case len(sp.Resource) >= 4 && sp.Resource[:4] == "ecc-":
			kinds["ecc"] = true
		case len(sp.Resource) >= 3 && sp.Resource[:3] == "die":
			kinds["die"] = true
		case len(sp.Resource) >= 2 && sp.Resource[:2] == "ch":
			kinds["ch"] = true
		}
	}
	for _, k := range []string{"die", "ch", "ecc"} {
		if !kinds[k] {
			t.Errorf("no %s spans captured", k)
		}
	}
}

// TestObsDisabledChangesNothing runs the same seed with and without a
// registry attached and asserts identical simulation results: the
// instrumentation must never perturb the model.
func TestObsDisabledChangesNothing(t *testing.T) {
	base := run(t, smallConfig(RiF, 2000), smallWorkload(t, "Ali124", 7), 300)

	cfg := smallConfig(RiF, 2000)
	cfg.Obs = obs.NewRegistry()
	cfg.Trace = obs.NewTracer(0)
	observed := run(t, cfg, smallWorkload(t, "Ali124", 7), 300)

	if base.Makespan != observed.Makespan {
		t.Errorf("makespan changed with observability: %v vs %v", base.Makespan, observed.Makespan)
	}
	if base.PageReads != observed.PageReads || base.PagesRetried != observed.PagesRetried {
		t.Errorf("retry behaviour changed with observability")
	}
	if base.Predictions != observed.Predictions || base.Mispredictions != observed.Mispredictions {
		t.Errorf("prediction stream changed with observability")
	}
}
