package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/odear"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// fig7Workload is the §III-B3 scenario: a single 256-KiB sequential
// read over two dies of one channel where the first two multi-plane
// commands (A and B) hit retention-stressed pages.
type fig7Workload struct{}

func (fig7Workload) Next() trace.Request {
	return trace.Request{Op: trace.Read, LPN: 0, Pages: 16}
}

func (fig7Workload) InitialAgeDays(lpn int64) float64 {
	if lpn < 8 {
		return 25
	}
	return 0.02
}

// Fig7Config is the reduced two-die, one-channel SSD of the Fig. 7/8
// timelines (host link excluded, as the paper's timeline stops at the
// ECC engine).
func Fig7Config(scheme ssd.Scheme) ssd.Config {
	cfg := ssd.DefaultConfig(scheme, 1000)
	cfg.Geometry = nand.Geometry{
		Channels: 1, DiesPerChan: 2, PlanesPerDie: 4,
		BlocksPerPlane: 64, PagesPerBlock: 64, PageBytes: 16 * 1024,
	}
	cfg.Timing.THostPage = 0
	cfg.QueueDepth = 1
	return cfg
}

// TimelineResult is one Fig. 7/8 measurement.
type TimelineResult struct {
	Scheme  ssd.Scheme
	Total   sim.Time
	PaperUS float64 // the paper's reported total, for comparison
	// Gantt is the run's execution timeline drawn from its tracer.
	Gantt string
}

// timelineSpans bounds the tracer of one Fig. 7/8 run, far above the
// few dozen occupancies a single 256-KiB read makes.
const timelineSpans = 1 << 10

// Timelines reproduces the 256-KiB-read execution timelines of
// Figs. 7 and 8: SSDzero (252 us), SSDone (418 us) and RiF (292 us).
// The three scheme runs are independent grid cells, each traced by
// its own tracer, which draws its Gantt chart. The scenario fixes its
// own device and workload, so only p's scheduling fields (Workers,
// Pool, Stop) and manifest collection apply.
func Timelines(p RunParams) ([]TimelineResult, error) {
	paper := map[ssd.Scheme]float64{ssd.Zero: 252, ssd.One: 418, ssd.RiF: 292}
	schemes := []ssd.Scheme{ssd.Zero, ssd.One, ssd.RiF}
	return gridMap(p, len(schemes), func(p RunParams, i int) (TimelineResult, error) {
		scheme := schemes[i]
		tr := obs.NewTracer(timelineSpans)
		p.Trace = tr
		m, err := p.closedLoop(Fig7Config(scheme), "fig7", fig7Workload{}, 1)
		if err != nil {
			return TimelineResult{}, err
		}
		if n := tr.Dropped(); n > 0 {
			return TimelineResult{}, fmt.Errorf("core: %v timeline dropped %d spans", scheme, n)
		}
		return TimelineResult{Scheme: scheme, Total: m.Makespan, PaperUS: paper[scheme],
			Gantt: renderGantt(tr.Spans(), 5)}, nil
	})
}

// renderGantt draws spans, ordered by (start, resource), as a text
// Gantt chart — the counterpart of the paper's Fig. 7/8 drawings: one
// row per resource, one column per usPerCol microseconds. Retry
// occupancies (labels ending in ') render with their base letter
// lowercased so the retry phase is visible.
func renderGantt(spans []obs.Span, usPerCol float64) string {
	if len(spans) == 0 {
		return "(no spans recorded)\n"
	}
	var resources []string
	seen := map[string]bool{}
	var maxEnd sim.Time
	for _, sp := range spans {
		if !seen[sp.Resource] {
			seen[sp.Resource] = true
			resources = append(resources, sp.Resource)
		}
		if sp.End > maxEnd {
			maxEnd = sp.End
		}
	}
	sort.Strings(resources)
	cols := int(maxEnd.Microseconds()/usPerCol) + 1
	if cols > 400 {
		cols = 400
	}
	rows := make(map[string][]byte, len(resources))
	for _, r := range resources {
		rows[r] = []byte(strings.Repeat(".", cols))
	}
	for _, sp := range spans {
		row := rows[sp.Resource]
		glyph := byte('?')
		if len(sp.Label) > 0 {
			glyph = sp.Label[0]
			if strings.HasSuffix(sp.Label, "'") {
				glyph = byte(strings.ToLower(sp.Label[:1])[0])
			}
		}
		c0 := int(sp.Start.Microseconds() / usPerCol)
		c1 := int(sp.End.Microseconds() / usPerCol)
		for c := c0; c <= c1 && c < cols; c++ {
			row[c] = glyph
		}
	}
	var b strings.Builder
	for _, r := range resources {
		fmt.Fprintf(&b, "%-6s |%s|\n", r, rows[r])
	}
	fmt.Fprintf(&b, "%-6s  0%*s\n", "us", cols-1, fmt.Sprintf("%.0f", float64(cols)*usPerCol))
	return b.String()
}

// FormatTimelines renders the comparison.
func FormatTimelines(results []TimelineResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %12s %10s %8s\n", "scheme", "measured", "paper", "delta")
	for _, r := range results {
		us := r.Total.Microseconds()
		fmt.Fprintf(&b, "%-8s %10.1fus %8.0fus %+7.1f%%\n",
			r.Scheme, us, r.PaperUS, 100*(us-r.PaperUS)/r.PaperUS)
	}
	return b.String()
}

// Overhead reports the §VI-C hardware/energy figures plus a measured
// net energy delta for a 2K-P/E RiF run.
type Overhead struct {
	AreaMM2            float64
	PowerMW            float64
	PredictionEnergyNJ float64
	AvoidedXferNJ      float64
	Predictions        int64
	AvoidedTransfers   int64
	NetEnergyDeltaNJ   float64
}

// OverheadStudy runs a RiF simulation and evaluates the energy
// accounting of §VI-C.
func OverheadStudy(p RunParams) (*Overhead, error) {
	m, err := RunOne(p, ssd.RiF, "Ali124", 2000)
	if err != nil {
		return nil, err
	}
	return &Overhead{
		AreaMM2:            odear.AreaMM2,
		PowerMW:            odear.PowerMW,
		PredictionEnergyNJ: odear.PredictionEnergyNJ,
		AvoidedXferNJ:      odear.AvoidedTransferEnergyNJ,
		Predictions:        m.Predictions,
		AvoidedTransfers:   m.AvoidedTransfers,
		NetEnergyDeltaNJ:   m.EnergyDeltaNJ(),
	}, nil
}

// Format renders the overhead summary.
func (o *Overhead) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "RP module (130nm @100MHz, paper synthesis): %.3f mm^2, %.2f mW\n", o.AreaMM2, o.PowerMW)
	fmt.Fprintf(&b, "prediction energy: %.1f nJ; avoided uncorrectable transfer: %.0f nJ\n",
		o.PredictionEnergyNJ, o.AvoidedXferNJ)
	fmt.Fprintf(&b, "run: %d predictions, %d avoided transfers, net %.1f uJ\n",
		o.Predictions, o.AvoidedTransfers, o.NetEnergyDeltaNJ/1000)
	return b.String()
}
