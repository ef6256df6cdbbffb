// Benchmarks that regenerate every table and figure of the RiF paper
// (HPCA 2024). Each benchmark runs the corresponding study at a
// reduced-but-faithful sizing and reports the headline quantity as a
// custom metric, so `go test -bench=.` doubles as the reproduction
// harness. The full reports come from the experiment table
// (rif.RunExperiment, `rifsim -fig N`) at its default sizing.
package rif_test

import (
	"testing"

	rif "repro"
	"repro/internal/core"
)

func benchParams(requests int) rif.RunParams {
	p := rif.DefaultRunParams()
	p.Requests = requests
	return p
}

// benchCodeParams runs the code-level studies on their default code
// with codeword streams seeded 7, at benchSamples codewords per RBER
// point.
func benchCodeParams() rif.RunParams {
	p := rif.DefaultRunParams()
	p.Seed = 7
	return p
}

const benchSamples = 60

// BenchmarkTableI_DeviceBuild measures assembling the Table I device:
// 8 channels x 4 dies x 4 planes with per-block state.
func BenchmarkTableI_DeviceBuild(b *testing.B) {
	spec, _ := rif.WorkloadByName("Ali124")
	spec.FootprintPages = 1 << 15
	for i := 0; i < b.N; i++ {
		w, err := rif.NewWorkload(spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		cfg := rif.DefaultConfig(rif.RiFSSD, 1000)
		if _, err := rif.New(cfg, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII_WorkloadGen measures the Table II request
// generator and reports the realized read ratio of Ali124.
func BenchmarkTableII_WorkloadGen(b *testing.B) {
	spec, _ := rif.WorkloadByName("Ali124")
	w, err := rif.NewWorkload(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	reads := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := w.Next(); r.Op == 0 {
			reads++
		}
	}
	b.ReportMetric(float64(reads)/float64(b.N), "read-ratio")
}

// BenchmarkFig03_LDPCCapability regenerates the decoder capability
// curve at the capability point and reports failure probability and
// average iterations (paper: P(fail) > 0.1 and 20 iterations at RBER
// 0.0085).
func BenchmarkFig03_LDPCCapability(b *testing.B) {
	p := benchCodeParams()
	var fail, iters float64
	for i := 0; i < b.N; i++ {
		pts, err := core.Fig3(p, core.DefaultCodeParams(), benchSamples, []float64{0.0085})
		if err != nil {
			b.Fatal(err)
		}
		fail, iters = pts[0].FailureProb, pts[0].AvgIters
	}
	b.ReportMetric(fail, "P(fail)@cap")
	b.ReportMetric(iters, "iters@cap")
}

// BenchmarkFig04_RetentionUntilRetry regenerates the
// retention-until-retry distributions and reports the 1K-P/E onset
// day (paper: 8 days).
func BenchmarkFig04_RetentionUntilRetry(b *testing.B) {
	var onset int
	for i := 0; i < b.N; i++ {
		cells := core.Fig4(1, 100, nil)
		onset = onsetOf(cells, 1000)
	}
	b.ReportMetric(float64(onset), "onset-days@1K")
}

func onsetOf(cells []core.RetentionCell, pe int) int {
	onset := -1
	for _, c := range cells {
		if c.PECycles == pe && (onset < 0 || c.Day < onset) {
			onset = c.Day
		}
	}
	return onset
}

// BenchmarkFig06_OneVsZero regenerates the motivation study: the
// bandwidth SSDone loses to read retries at 2K P/E on Ali124
// (paper: ~50% average across workloads at 2K).
func BenchmarkFig06_OneVsZero(b *testing.B) {
	p := benchParams(800)
	var drop float64
	for i := 0; i < b.N; i++ {
		tbl, err := rif.CompareSchemes(p, []rif.Scheme{rif.SSDZero, rif.SSDOne}, []string{"Ali124"}, []int{2000})
		if err != nil {
			b.Fatal(err)
		}
		drop = 1 - tbl.Get(rif.SSDOne, "Ali124", 2000)/tbl.Get(rif.SSDZero, "Ali124", 2000)
	}
	b.ReportMetric(100*drop, "%bw-lost@2K")
}

// BenchmarkFig07_Timeline regenerates the SSDzero/SSDone execution
// timelines (paper: 252 us and 418 us).
func BenchmarkFig07_Timeline(b *testing.B) {
	var zero, one float64
	for i := 0; i < b.N; i++ {
		res, err := core.Timelines(core.RunParams{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			switch r.Scheme {
			case rif.SSDZero:
				zero = r.Total.Microseconds()
			case rif.SSDOne:
				one = r.Total.Microseconds()
			}
		}
	}
	b.ReportMetric(zero, "zero-us")
	b.ReportMetric(one, "one-us")
}

// BenchmarkFig08_RiFTimeline regenerates the RiF timeline
// (paper: 292 us).
func BenchmarkFig08_RiFTimeline(b *testing.B) {
	var rifUS float64
	for i := 0; i < b.N; i++ {
		res, err := core.Timelines(core.RunParams{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if r.Scheme == rif.RiFSSD {
				rifUS = r.Total.Microseconds()
			}
		}
	}
	b.ReportMetric(rifUS, "rif-us")
}

// BenchmarkFig10_SyndromeCorrelation regenerates the syndrome-weight
// correlation and reports the calibrated pruned threshold rhoS.
func BenchmarkFig10_SyndromeCorrelation(b *testing.B) {
	p := benchCodeParams()
	var rho float64
	for i := 0; i < b.N; i++ {
		_, _, pruned, err := core.Fig10(p, core.DefaultCodeParams(), benchSamples, []float64{0.0085})
		if err != nil {
			b.Fatal(err)
		}
		rho = float64(pruned)
	}
	b.ReportMetric(rho, "rhoS-pruned")
}

// BenchmarkFig11_RPAccuracy measures the exact predictor's accuracy
// above the capability (paper: 99.1%).
func BenchmarkFig11_RPAccuracy(b *testing.B) {
	p := benchCodeParams()
	rbers := []float64{0.011, 0.017, 0.025, 0.033}
	var acc float64
	for i := 0; i < b.N; i++ {
		pts, err := core.RPAccuracy(p, core.DefaultCodeParams(), benchSamples, rbers, false)
		if err != nil {
			b.Fatal(err)
		}
		acc = core.MeanAccuracyAbove(pts, 0.0085)
	}
	b.ReportMetric(100*acc, "%accuracy")
}

// BenchmarkFig12_ChunkSimilarity regenerates the chunk similarity
// study and reports the worst 4-KiB spread (paper: <= 4.5%).
func BenchmarkFig12_ChunkSimilarity(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		spread = core.MaxSpreadFor(core.Fig12(1, 500), 4)
	}
	b.ReportMetric(100*spread, "%max-spread-4K")
}

// BenchmarkFig14_RPApproxAccuracy measures the hardware predictor's
// accuracy above the capability (paper: 98.7%).
func BenchmarkFig14_RPApproxAccuracy(b *testing.B) {
	p := benchCodeParams()
	rbers := []float64{0.011, 0.017, 0.025, 0.033}
	var acc float64
	for i := 0; i < b.N; i++ {
		pts, err := core.RPAccuracy(p, core.DefaultCodeParams(), benchSamples, rbers, true)
		if err != nil {
			b.Fatal(err)
		}
		acc = core.MeanAccuracyAbove(pts, 0.0085)
	}
	b.ReportMetric(100*acc, "%accuracy")
}

// BenchmarkFig17_AllSchemes regenerates the headline comparison on
// the most read-intensive workload and reports RiF's gain over SENC
// at 2K P/E (paper: +72.1% averaged over all eight workloads).
func BenchmarkFig17_AllSchemes(b *testing.B) {
	p := benchParams(600)
	var gain float64
	for i := 0; i < b.N; i++ {
		tbl, err := rif.CompareSchemes(p, rif.AllSchemes(), []string{"Ali124", "Sys0"}, []int{2000})
		if err != nil {
			b.Fatal(err)
		}
		gain = tbl.GeoMeanGain(rif.RiFSSD, rif.SENC, 2000)
	}
	b.ReportMetric(100*gain, "%RiF-over-SENC@2K")
}

// BenchmarkFig17_AllSchemesObserved is BenchmarkFig17_AllSchemes with
// full observability attached (per-run registries, manifests, latency
// sketches folded into histograms at drain). Comparing the two ns/op pins the metrics
// overhead; the acceptance bar is < 5% regression (tracked in
// BENCH_obs.json).
func BenchmarkFig17_AllSchemesObserved(b *testing.B) {
	p := benchParams(600)
	p.Tool = "bench"
	p.Experiment = "fig17"
	var gain float64
	var runs int
	for i := 0; i < b.N; i++ {
		collect := rif.NewRunCollection()
		p.Collect = collect
		tbl, err := rif.CompareSchemes(p, rif.AllSchemes(), []string{"Ali124", "Sys0"}, []int{2000})
		if err != nil {
			b.Fatal(err)
		}
		gain = tbl.GeoMeanGain(rif.RiFSSD, rif.SENC, 2000)
		runs = collect.Len()
	}
	b.ReportMetric(100*gain, "%RiF-over-SENC@2K")
	b.ReportMetric(float64(runs), "manifests")
}

// BenchmarkFig18_ChannelUsage regenerates the channel usage breakdown
// and reports the wasted fraction (UNCOR+ECCWAIT) for SWR vs RiF at
// 2K P/E (paper: 54.4% vs ~2% on Ali124).
func BenchmarkFig18_ChannelUsage(b *testing.B) {
	p := benchParams(600)
	var swrWaste, rifWaste float64
	for i := 0; i < b.N; i++ {
		cells, err := core.Fig18(p, []rif.Scheme{rif.SWR, rif.RiFSSD})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Workload != "Ali124" || c.PECycles != 2000 {
				continue
			}
			if c.Scheme == rif.SWR {
				swrWaste = c.Uncor + c.ECCWait
			} else {
				rifWaste = c.Uncor + c.ECCWait
			}
		}
	}
	b.ReportMetric(100*swrWaste, "%SWR-wasted")
	b.ReportMetric(100*rifWaste, "%RiF-wasted")
}

// BenchmarkFig19_TailLatency regenerates the read-latency tails on
// Ali124 at 2K and reports RiF's P99.99 reduction vs SENC
// (paper: 91.8%).
func BenchmarkFig19_TailLatency(b *testing.B) {
	p := benchParams(800)
	var reduction float64
	for i := 0; i < b.N; i++ {
		curves, err := core.Fig19(p, []rif.Scheme{rif.SENC, rif.RiFSSD})
		if err != nil {
			b.Fatal(err)
		}
		var senc, rf float64
		for _, c := range curves {
			if c.PECycles != 2000 {
				continue
			}
			if c.Scheme == rif.SENC {
				senc = c.P9999
			} else {
				rf = c.P9999
			}
		}
		if senc > 0 {
			reduction = 1 - rf/senc
		}
	}
	b.ReportMetric(100*reduction, "%p9999-cut@2K")
}

// BenchmarkOverhead_Energy regenerates the §VI-C energy accounting
// and reports the net saving per avoided transfer regime.
func BenchmarkOverhead_Energy(b *testing.B) {
	p := benchParams(600)
	var net float64
	for i := 0; i < b.N; i++ {
		o, err := core.OverheadStudy(p)
		if err != nil {
			b.Fatal(err)
		}
		net = o.NetEnergyDeltaNJ / 1000
	}
	b.ReportMetric(net, "net-uJ")
}
