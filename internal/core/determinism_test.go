package core

import (
	"bytes"
	"io"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/obs"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// The grid studies shard cells across a worker pool; the contract is
// that the worker count is invisible in every output: the result
// structs, the rendered reports and the collected manifests must be
// byte-identical whatever -workers is. These tests pin that for the
// three figure studies and one ablation.

// detParams sizes a fast run that still exercises retries.
func detParams(workers int) RunParams {
	p := DefaultRunParams()
	p.Requests = 150
	p.Workers = workers
	return p
}

// zeroWallTimes strips the one intentionally non-reproducible
// manifest field (host-side wall time).
func zeroWallTimes(ms []obs.Manifest) []obs.Manifest {
	out := append([]obs.Manifest(nil), ms...)
	for i := range out {
		out[i].WallTimeS = 0
	}
	return out
}

func TestCompareSchemesWorkerCountInvariance(t *testing.T) {
	schemes := []ssd.Scheme{ssd.Sentinel, ssd.SWR, ssd.RiF}
	workloads := []string{"Ali124", "Sys0"}
	pes := []int{1000, 2000}

	run := func(workers int) (*BandwidthTable, []obs.Manifest) {
		p := detParams(workers)
		p.Collect = obs.NewCollection()
		p.Tool, p.Experiment = "test", "fig17"
		tbl, err := CompareSchemes(p, schemes, workloads, pes)
		if err != nil {
			t.Fatal(err)
		}
		return tbl, p.Collect.Runs()
	}

	seqTbl, seqRuns := run(1)
	for _, workers := range []int{2, 4} {
		parTbl, parRuns := run(workers)
		if !reflect.DeepEqual(seqTbl, parTbl) {
			t.Fatalf("workers=%d table differs from sequential", workers)
		}
		seqTxt := seqTbl.Format(ssd.Sentinel, schemes, workloads)
		parTxt := parTbl.Format(ssd.Sentinel, schemes, workloads)
		if seqTxt != parTxt {
			t.Fatalf("workers=%d rendered report differs from sequential:\n%s\n--- vs ---\n%s",
				workers, seqTxt, parTxt)
		}
		if !reflect.DeepEqual(zeroWallTimes(seqRuns), zeroWallTimes(parRuns)) {
			t.Fatalf("workers=%d manifests differ from sequential", workers)
		}
	}
}

func TestFig18WorkerCountInvariance(t *testing.T) {
	schemes := []ssd.Scheme{ssd.Sentinel, ssd.RiF}
	run := func(workers int) []UsageCell {
		cells, err := Fig18(detParams(workers), schemes)
		if err != nil {
			t.Fatal(err)
		}
		return cells
	}
	seq := run(1)
	par := run(4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("Fig18 cells differ between workers=1 and workers=4")
	}
	if FormatUsage(seq) != FormatUsage(par) {
		t.Fatal("Fig18 rendered report differs between workers=1 and workers=4")
	}
	// Two workloads (Ali121, Ali124) at each paper P/E count per scheme.
	if want := len(schemes) * 2 * len(PaperPECycles); len(seq) != want {
		t.Fatalf("Fig18 yielded %d cells, want %d", len(seq), want)
	}
}

func TestFig19WorkerCountInvariance(t *testing.T) {
	schemes := []ssd.Scheme{ssd.Sentinel, ssd.RiF}
	run := func(workers int) []LatencyCurve {
		curves, err := Fig19(detParams(workers), schemes)
		if err != nil {
			t.Fatal(err)
		}
		return curves
	}
	seq := run(1)
	par := run(4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("Fig19 curves differ between workers=1 and workers=4")
	}
	if FormatLatency(seq) != FormatLatency(par) {
		t.Fatal("Fig19 rendered report differs between workers=1 and workers=4")
	}
	for _, c := range seq {
		if c.P9999 < c.P99 || c.P99 < c.P50 {
			t.Fatalf("percentiles inverted: %+v", c)
		}
	}
}

func TestAblationWorkerCountInvariance(t *testing.T) {
	run := func(workers int) []BufferAblationPoint {
		pts, err := AblateECCBuffer(detParams(workers), ssd.One)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	seq := run(1)
	par := run(4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("ECC buffer ablation differs between workers=1 and workers=4")
	}
	if FormatBufferAblation(seq) != FormatBufferAblation(par) {
		t.Fatal("ablation rendered report differs between workers=1 and workers=4")
	}
}

func TestTimelinesWorkerCountInvariance(t *testing.T) {
	seq, err := Timelines(RunParams{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Timelines(RunParams{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("timelines differ between workers=1 and workers=4")
	}
}

// The full Fig. 17 grid is the acceptance scenario for -workers; keep
// a scaled-down version of the exact production call path (all
// schemes, all workloads) under the race detector in CI.
func TestFig17WorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full scheme/workload grid")
	}
	p1 := detParams(1)
	p1.Requests = 60
	seq, err := Fig17(p1)
	if err != nil {
		t.Fatal(err)
	}
	p4 := detParams(4)
	p4.Requests = 60
	par, err := Fig17(p4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("Fig17 table differs between workers=1 and workers=4")
	}
	if seq.Format(ssd.Sentinel, ssd.AllSchemes(), trace.Names()) !=
		par.Format(ssd.Sentinel, ssd.AllSchemes(), trace.Names()) {
		t.Fatal("Fig17 rendered report differs between workers=1 and workers=4")
	}
}

// TestEveryExperimentRecordsManifests pins that every simulation in
// core runs through RunParams.record: each experiment that simulates a
// device collects at least one manifest under Collect, and the
// collection's JSON, with the host-noise field wall_time_s masked, is
// the same on one worker as on four. The code-level and
// characterization rows simulate no device and are skipped.
func TestEveryExperimentRecordsManifests(t *testing.T) {
	noDevice := map[string]bool{
		"3": true, "4": true, "10": true, "11": true, "12": true, "14": true,
		"soft": true, "calibrate": true,
	}
	wallTime := regexp.MustCompile(`"wall_time_s": [0-9eE.+-]+`)
	for _, name := range ValidExperiments() {
		t.Run(name, func(t *testing.T) {
			if noDevice[name] {
				t.Skip("simulates no device")
			}
			var want string
			for _, workers := range []int{1, 4} {
				p := goldenParams(name)
				p.Workers = workers
				p.Collect = obs.NewCollection()
				if err := RunExperiment(io.Discard, name, p); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if p.Collect.Len() == 0 {
					t.Fatalf("workers=%d: no manifests collected", workers)
				}
				var b bytes.Buffer
				if err := obs.WriteJSON(&b, p.Collect); err != nil {
					t.Fatal(err)
				}
				got := wallTime.ReplaceAllString(b.String(), `"wall_time_s": 0`)
				if workers == 1 {
					want = got
				} else if got != want {
					t.Errorf("workers=%d: manifests differ from workers=1", workers)
				}
			}
		})
	}
}
