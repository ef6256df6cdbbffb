package core

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"repro/internal/fit"
	"repro/internal/ldpc"
	"repro/internal/nand"
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
	{"3", "Fig. 3 — QC-LDPC capability", reportFig3},
	{"4", "Fig. 4 — retention time until RBER exceeds the ECC capability", reportFig4},
	{"6", "Fig. 6 — SSDone vs SSDzero I/O bandwidth (MB/s)", reportFig6},
	{"7", timelinesTitle, reportTimelines},
	{"8", timelinesTitle, reportTimelines},
	{"10", "Fig. 10 — RBER vs syndrome weight", reportFig10},
	{"11", "RP prediction accuracy w/o approximations (Fig. 11)", accuracyReport(false, 0.991)},
	{"12", "Fig. 12 — RBER similarity among fixed-size chunks of a 16-KiB page", reportFig12},
	{"14", "RP prediction accuracy w/ chunking + syndrome pruning (Fig. 14)", accuracyReport(true, 0.987)},
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
	{"soft", "Extension — soft-decision decoding gain over the hard capability", reportSoft},
	{"calibrate", "Calibration — fitting the Vth model to the Fig. 4 frontier", reportCalibrate},
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

// Code returns the code the LDPC rows run under p: DefaultCodeParams',
// at the paper's circulant unless p.Shrink.
func (p RunParams) Code() CodeParams {
	cp := DefaultCodeParams()
	if !p.Shrink {
		cp.Circulant = ldpc.PaperCirculant
	}
	return cp
}

// codeSizing sizes an LDPC row: p's code, and p.Requests codewords
// split evenly (floor) over the figure's points RBER points.
func codeSizing(p RunParams, points int) (CodeParams, int, error) {
	samples := p.Requests / points
	if samples < 1 {
		return CodeParams{}, 0, fmt.Errorf("core: requests = %d, want at least one codeword for each of %d RBER points",
			p.Requests, points)
	}
	return p.Code(), samples, nil
}

// writeCodeSizing writes the line that opens an LDPC row's report.
func writeCodeSizing(out io.Writer, cp CodeParams, samples int) {
	fmt.Fprintf(out, "N=%d bits, %d samples/point\n", cp.BlockCols*cp.Circulant, samples)
}

func reportFig3(out io.Writer, p RunParams) error {
	cp, samples, err := codeSizing(p, len(fig3RBERs))
	if err != nil {
		return err
	}
	points, err := Fig3(p, cp, samples, fig3RBERs)
	if err != nil {
		return err
	}
	writeCodeSizing(out, cp, samples)
	fmt.Fprint(out, FormatFig3(points))
	fail := plot.Series{Name: "P(failure)"}
	iters := plot.Series{Name: "avg iterations / 20"}
	for _, pt := range points {
		fail.Points = append(fail.Points, plot.XY{X: pt.RBER * 1000, Y: pt.FailureProb})
		iters.Points = append(iters.Points, plot.XY{X: pt.RBER * 1000, Y: pt.AvgIters / 20})
	}
	fmt.Fprintln(out)
	fmt.Fprint(out, plot.Chart("capability cliff (x: RBER x1e-3)", []plot.Series{fail, iters}, 56, 12))
	fmt.Fprintf(out, "paper: failure probability exceeds 1e-1 and iterations reach 20 near RBER %.4f\n",
		nand.ECCCapabilityRBER)
	return nil
}

func reportFig4(out io.Writer, p RunParams) error {
	fmt.Fprint(out, FormatFig4(Fig4(p.Seed, fig4Blocks, nil)))
	fmt.Fprintln(out, "paper onsets: 17d @0 P/E, 14d @200, 10d @500, 8d @1000")
	return nil
}

func reportFig10(out io.Writer, p RunParams) error {
	cp, samples, err := codeSizing(p, len(fig10RBERs))
	if err != nil {
		return err
	}
	points, rhoFull, rhoPruned, err := Fig10(p, cp, samples, fig10RBERs)
	if err != nil {
		return err
	}
	writeCodeSizing(out, cp, samples)
	fmt.Fprint(out, FormatFig10(points, rhoFull, rhoPruned))
	fmt.Fprintln(out, "paper: rhoS = 3830 at RBER 0.0085 for the full 4-KiB code")
	return nil
}

// accuracyReport renders Fig. 11 (exact RP) or Fig. 14 (approximate
// RP) against the paper's mean accuracy above the capability.
func accuracyReport(approximate bool, paper float64) func(io.Writer, RunParams) error {
	return func(out io.Writer, p RunParams) error {
		cp, samples, err := codeSizing(p, len(accuracyRBERs))
		if err != nil {
			return err
		}
		points, err := RPAccuracy(p, cp, samples, accuracyRBERs, approximate)
		if err != nil {
			return err
		}
		writeCodeSizing(out, cp, samples)
		fmt.Fprint(out, FormatAccuracy(points))
		fmt.Fprintf(out, "mean accuracy above capability: %.3f (paper: %.3f)\n",
			MeanAccuracyAbove(points, nand.ECCCapabilityRBER), paper)
		return nil
	}
}

func reportFig12(out io.Writer, p RunParams) error {
	pts := Fig12(p.Seed, fig12Pages)
	fmt.Fprint(out, FormatFig12(pts))
	fmt.Fprintf(out, "worst spreads: 4K=%.1f%% 2K=%.1f%% 1K=%.1f%% (paper: 4.5%% / ~8%% / 13.5%%)\n",
		100*MaxSpreadFor(pts, 4), 100*MaxSpreadFor(pts, 2), 100*MaxSpreadFor(pts, 1))
	return nil
}

func reportSoft(out io.Writer, p RunParams) error {
	cp, samples, err := codeSizing(p, len(softRBERs))
	if err != nil {
		return err
	}
	points, softCap, err := SoftGainStudy(p, cp, samples, softRBERs)
	if err != nil {
		return err
	}
	writeCodeSizing(out, cp, samples)
	fmt.Fprint(out, FormatSoftGain(points, softCap))
	return nil
}

// reportCalibrate fits the NAND model's retention knobs to the paper's
// Fig. 4 onsets and prints the fit beside the targets.
func reportCalibrate(out io.Writer, p RunParams) error {
	targets := fit.PaperTargets()
	res, err := fit.Calibrate(nand.DefaultModelParams(), targets, fit.Options{Seed: p.Seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "RMSLE = %.4f over %d evaluations\n", res.RMSLE, res.Evaluations)
	got := fit.CrossingDays(res.Params, targets, p.Seed)
	fmt.Fprintf(out, "%8s %10s %10s\n", "P/E", "target", "fitted")
	for i, t := range targets {
		fmt.Fprintf(out, "%8d %9.1fd %9.1fd\n", t.PECycles, t.CrossDays, got[i])
	}
	fmt.Fprintf(out, "fitted knobs: RetentionShift=%.1f PEShiftBoost=%.3f PEWiden=%.3f\n",
		res.Params.RetentionShift, res.Params.PEShiftBoost, res.Params.PEWiden)
	return nil
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
