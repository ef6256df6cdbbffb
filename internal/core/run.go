package core

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"repro/internal/plot"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// This file is the single experiment dispatcher shared by every
// front-end (cmd/rifsim, cmd/rifserve, tests): one table maps each
// experiment name to its title and a study that renders its text
// report. Both the one-shot CLI and the long-running service call
// RunExperiment with the same RunParams, which is what makes a served
// job byte-for-byte replayable as a local rifsim invocation.

// experiment is one row of the dispatch table: the name front-ends
// accept, the report's title line, and run, which runs the study and
// writes the report body.
type experiment struct {
	name  string
	title string
	run   func(out io.Writer, p RunParams) error
}

// experiments lists every experiment in presentation order.
var experiments = []experiment{
	{"6", "Fig. 6 — SSDone vs SSDzero I/O bandwidth (MB/s)", reportFig6},
	{"7", timelinesTitle, reportTimelines},
	{"8", timelinesTitle, reportTimelines},
	{"17", "Fig. 17 — I/O bandwidth normalized to SENC", reportFig17},
	{"18", "Fig. 18 — channel usage breakdown", reportFig18},
	{"19", "Fig. 19 — Ali124 read-latency percentiles", reportFig19},
	{"overhead", "§VI-C — RP module overhead", reportOverhead},
	{"ablate-chunk", "Ablation — RP chunk size (paper picks 4 KiB, §V-A1)", reportAblateChunk},
	{"ablate-buffer", "Ablation — channel ECC buffer depth (SSDone at 2K P/E)", reportAblateBuffer},
	{"ablate-accuracy", "Ablation — RP accuracy floor (RiF at 2K P/E)", reportAblateAccuracy},
	{"ablate-scheduling", "Ablation — die scheduling policy (Sys0 at 2K P/E)", reportAblateScheduling},
	{"ablate-secondcheck", "Ablation — footnote-4 second RP pass (RiF at 3K P/E)", reportAblateSecondCheck},
	{"refresh", "Study — refresh horizon vs read performance (SSDone at 1K P/E)", reportRefresh},
	{"tenants", "Study — multi-queue tenant isolation at 2K P/E", reportTenants},
	{"chaos", "Study — chaos sweep: every fault class injected, Ali124 at 2K P/E", reportChaos},
	{"tailsweep", "Study — open-loop tail sweep: Poisson arrivals, Ali124 at 2K P/E", reportTailSweep},
	{"agesweep", "Study — drive-age sweep: a simulated drive-year of wear, read disturb and read-reclaim, Ali124", reportAgeSweep},
}

const timelinesTitle = "Figs. 7/8 — 256-KiB read execution timelines"

// ValidExperiments lists every experiment RunExperiment accepts, in
// presentation order; unknown names echo it so the valid set is
// discoverable from the command line and the job-spec error message.
func ValidExperiments() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

// lookup finds name's table row.
func lookup(name string) (experiment, bool) {
	for _, e := range experiments {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}

// ValidExperiment reports whether name is a known experiment.
func ValidExperiment(name string) bool {
	_, ok := lookup(name)
	return ok
}

// Validate reports errors in the host-facing numeric knobs a CLI flag
// or job spec feeds into RunParams, so both front-ends reject bad
// sizing identically instead of silently misbehaving deep inside a
// study. Workers 0 means auto (one per CPU) and is valid here; the
// rifsim CLI additionally rejects an explicit -workers 0.
func (p RunParams) Validate() error {
	if p.Requests <= 0 {
		return fmt.Errorf("core: requests must be >= 1 (got %d)", p.Requests)
	}
	if p.Workers < 0 {
		return fmt.Errorf("core: workers must be >= 0 (got %d; 0 means one per CPU)", p.Workers)
	}
	if p.FootprintPages < 0 {
		return fmt.Errorf("core: footprint pages must be >= 0 (got %d)", p.FootprintPages)
	}
	if err := p.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// RunExperiment runs one named experiment with the given params and
// writes its text report to out. The report bytes depend only on
// (name, params) — never on worker count or host clock — so any two
// front-ends given the same inputs produce identical output.
//
// The title line goes out only once the study has produced output: a
// study that fails before rendering leaves out untouched, one that
// fails part-way leaves its title and partial report.
func RunExperiment(out io.Writer, name string, p RunParams) error {
	e, ok := lookup(name)
	if !ok {
		return fmt.Errorf("unknown experiment %q; valid figures/ablations: %s",
			name, strings.Join(ValidExperiments(), ", "))
	}
	var report bytes.Buffer
	err := e.run(&report, p)
	if err != nil && report.Len() == 0 {
		return err
	}
	if _, werr := fmt.Fprintf(out, "%s\n%s", e.title, report.Bytes()); err == nil {
		err = werr
	}
	return err
}

func reportFig6(out io.Writer, p RunParams) error {
	tbl, err := Fig6(p)
	if err != nil {
		return err
	}
	for _, pe := range PaperPECycles {
		fmt.Fprintf(out, "%dK P/E:\n", pe/1000)
		for _, w := range []string{"Ali121", "Ali124", "Sys0", "Sys1"} {
			zero := tbl.Get(ssd.Zero, w, pe)
			one := tbl.Get(ssd.One, w, pe)
			if zero <= 0 {
				fmt.Fprintf(out, "  %-8s SSDzero=%6.0f  SSDone=%6.0f  (n/a)\n", w, zero, one)
				continue
			}
			fmt.Fprintf(out, "  %-8s SSDzero=%6.0f  SSDone=%6.0f  (%+.1f%%)\n",
				w, zero, one, 100*(one/zero-1))
		}
	}
	return nil
}

func reportTimelines(out io.Writer, p RunParams) error {
	results, err := Timelines(p)
	if err != nil {
		return err
	}
	fmt.Fprint(out, FormatTimelines(results))
	for _, r := range results {
		fmt.Fprintf(out, "\n%v (1 column = 5us; lowercase = retry):\n%s", r.Scheme, r.Gantt)
	}
	return nil
}

func reportFig17(out io.Writer, p RunParams) error {
	tbl, err := Fig17(p)
	if err != nil {
		return err
	}
	fmt.Fprint(out, tbl.Format(ssd.Sentinel, ssd.AllSchemes(), trace.Names()))
	for _, pe := range PaperPECycles {
		fmt.Fprintf(out, "RiF over SENC at %dK P/E: %+.1f%% (paper: +23.8/+47.4/+72.1%%)\n",
			pe/1000, 100*tbl.GeoMeanGain(ssd.RiF, ssd.Sentinel, pe))
	}
	var bars []plot.Bar
	for _, s := range ssd.AllSchemes() {
		bars = append(bars, plot.Bar{
			Label: s.String(),
			Value: 1 + tbl.GeoMeanGain(s, ssd.Sentinel, 2000),
		})
	}
	fmt.Fprintln(out)
	fmt.Fprint(out, plot.HBar("geomean bandwidth vs SENC at 2K P/E", bars, 50))
	return nil
}

func reportFig18(out io.Writer, p RunParams) error {
	cells, err := Fig18(p, []ssd.Scheme{ssd.Sentinel, ssd.SWR, ssd.SWRPlus, ssd.RPOnly, ssd.RiF})
	if err != nil {
		return err
	}
	fmt.Fprint(out, FormatUsage(cells))
	return nil
}

func reportFig19(out io.Writer, p RunParams) error {
	curves, err := Fig19(p, []ssd.Scheme{ssd.Sentinel, ssd.SWR, ssd.SWRPlus, ssd.RPOnly, ssd.RiF})
	if err != nil {
		return err
	}
	fmt.Fprint(out, FormatLatency(curves))
	for _, pe := range PaperPECycles {
		var series []plot.Series
		for _, c := range curves {
			if c.PECycles != pe {
				continue
			}
			s := plot.Series{Name: c.Scheme.String()}
			for _, pt := range c.CDF {
				s.Points = append(s.Points, plot.XY{X: pt.X / 1000, Y: pt.F})
			}
			series = append(series, s)
		}
		fmt.Fprintln(out)
		fmt.Fprint(out, plot.Chart(
			fmt.Sprintf("CDF of read latency (ms), %dK P/E cycles", pe/1000),
			series, 64, 14))
	}
	return nil
}

func reportOverhead(out io.Writer, p RunParams) error {
	o, err := OverheadStudy(p)
	if err != nil {
		return err
	}
	fmt.Fprint(out, o.Format())
	return nil
}

func reportAblateChunk(out io.Writer, p RunParams) error {
	pts, err := AblateChunkSize(p)
	if err != nil {
		return err
	}
	fmt.Fprint(out, FormatChunkAblation(pts))
	return nil
}

func reportAblateBuffer(out io.Writer, p RunParams) error {
	pts, err := AblateECCBuffer(p, ssd.One)
	if err != nil {
		return err
	}
	fmt.Fprint(out, FormatBufferAblation(pts))
	return nil
}

func reportAblateAccuracy(out io.Writer, p RunParams) error {
	pts, err := AblateAccuracy(p)
	if err != nil {
		return err
	}
	fmt.Fprint(out, FormatAccuracyAblation(pts))
	return nil
}

func reportAblateScheduling(out io.Writer, p RunParams) error {
	pts, err := AblateDieScheduling(p, []ssd.Scheme{ssd.One, ssd.RiF})
	if err != nil {
		return err
	}
	fmt.Fprint(out, FormatScheduling(pts))
	return nil
}

func reportAblateSecondCheck(out io.Writer, p RunParams) error {
	res, err := AblateSecondCheck(p)
	if err != nil {
		return err
	}
	_, _, u0, _ := res.Without.Channels.Fractions()
	_, _, u1, _ := res.With.Channels.Fractions()
	fmt.Fprintf(out, "without: %7.0f MB/s, uncor %.2f%%, avoided %d\n",
		res.Without.Bandwidth(), 100*u0, res.Without.AvoidedTransfers)
	fmt.Fprintf(out, "with:    %7.0f MB/s, uncor %.2f%%, avoided %d\n",
		res.With.Bandwidth(), 100*u1, res.With.AvoidedTransfers)
	return nil
}

func reportRefresh(out io.Writer, p RunParams) error {
	pts, err := AblateRefreshHorizon(p, ssd.One, 1000)
	if err != nil {
		return err
	}
	fmt.Fprint(out, FormatRefresh(pts))
	return nil
}

func reportTenants(out io.Writer, p RunParams) error {
	results, err := MultiTenantStudy(p,
		[]ssd.Scheme{ssd.Sentinel, ssd.SWR, ssd.RiF}, 2000)
	if err != nil {
		return err
	}
	fmt.Fprint(out, FormatMultiTenant(results))
	return nil
}

func reportChaos(out io.Writer, p RunParams) error {
	pts, err := ChaosStudy(p, nil, nil)
	if err != nil {
		return err
	}
	fmt.Fprint(out, FormatChaos(pts))
	return nil
}

func reportTailSweep(out io.Writer, p RunParams) error {
	pts, err := TailSweep(p, TailSweepSchemes(), "Ali124", 2000, nil)
	if err != nil {
		return err
	}
	fmt.Fprint(out, FormatTailSweep(pts))
	gain, rate, err := BestSubSaturationGain(pts, ssd.RiF, ssd.Sentinel)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nRiF P99.99 cut vs SENC at %.0f IOPS (sub-saturation): %.1f%% (paper Fig. 19 ~91.8%%)\n",
		rate, 100*gain)
	return nil
}

func reportAgeSweep(out io.Writer, p RunParams) error {
	pts, err := AgeSweep(p, AgeSweepSchemes(), ageSweepEpochs,
		ageSweepEpochDays, ageSweepDuty, "Ali124")
	if err != nil {
		return err
	}
	fmt.Fprint(out, FormatAgeSweep(pts))
	var bw, merr []plot.Series
	for _, sc := range AgeSweepSchemes() {
		sb := plot.Series{Name: sc.String()}
		se := plot.Series{Name: sc.String()}
		for _, pt := range pts {
			if pt.Scheme != sc {
				continue
			}
			months := pt.AgeDays / ageSweepEpochDays
			sb.Points = append(sb.Points, plot.XY{X: months, Y: pt.MBps})
			se.Points = append(se.Points, plot.XY{X: months, Y: 100 * pt.MediaErrRate})
		}
		bw = append(bw, sb)
		merr = append(merr, se)
	}
	fmt.Fprintln(out)
	fmt.Fprint(out, plot.Chart("I/O bandwidth (MB/s) vs drive age (months)", bw, 64, 14))
	fmt.Fprintln(out)
	fmt.Fprint(out, plot.Chart("media-error requests (%) vs drive age (months)", merr, 64, 14))
	return nil
}
