package core

import (
	"fmt"
	"strings"

	"repro/internal/nand"
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
}

// Timelines reproduces the 256-KiB-read execution timelines of
// Figs. 7 and 8: SSDzero (252 us), SSDone (418 us) and RiF (292 us).
// The three scheme runs are independent grid cells; only p's
// scheduling fields (Workers, Pool, Stop) apply, since the scenario
// fixes its own device and workload.
func Timelines(p RunParams) ([]TimelineResult, error) {
	paper := map[ssd.Scheme]float64{ssd.Zero: 252, ssd.One: 418, ssd.RiF: 292}
	schemes := []ssd.Scheme{ssd.Zero, ssd.One, ssd.RiF}
	return gridMap(p, len(schemes), func(i int) (TimelineResult, error) {
		scheme := schemes[i]
		s, err := ssd.New(Fig7Config(scheme), fig7Workload{})
		if err != nil {
			return TimelineResult{}, err
		}
		m, err := s.Run(1)
		if err != nil {
			return TimelineResult{}, err
		}
		return TimelineResult{Scheme: scheme, Total: m.Makespan, PaperUS: paper[scheme]}, nil
	})
}

// TimelineGantt runs the Fig. 7/8 scenario with span recording and
// renders the execution timeline as a text Gantt chart — the direct
// counterpart of the paper's Fig. 7/8 drawings. Lowercase glyphs mark
// retry work (A' re-reads), 'W' marks write traffic (none here).
func TimelineGantt(scheme ssd.Scheme) (string, error) {
	cfg := Fig7Config(scheme)
	cfg.RecordSpans = true
	s, err := ssd.New(cfg, fig7Workload{})
	if err != nil {
		return "", err
	}
	if _, err := s.Run(1); err != nil {
		return "", err
	}
	return ssd.RenderGantt(s.Spans(), 5), nil
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
