package core

import (
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/ssd"
)

// chaosParams sizes a fast sweep that still injects every class.
func chaosParams(workers int) RunParams {
	p := DefaultRunParams()
	p.Requests = 120
	p.Workers = workers
	return p
}

// TestChaosStudyWorkerCountInvariance pins the acceptance criterion:
// same seed + same fault config yields a byte-identical chaos manifest
// (wall time excluded) for any -workers value.
func TestChaosStudyWorkerCountInvariance(t *testing.T) {
	rates := []float64{0, 0.02}
	schemes := []ssd.Scheme{ssd.SWR, ssd.RiF}

	run := func(workers int) ([]ChaosPoint, []byte) {
		p := chaosParams(workers)
		p.Collect = obs.NewCollection()
		p.Tool, p.Experiment = "test", "chaos"
		pts, err := ChaosStudy(p, rates, schemes)
		if err != nil {
			t.Fatal(err)
		}
		runs := zeroWallTimes(p.Collect.Runs())
		blob, err := json.Marshal(runs)
		if err != nil {
			t.Fatal(err)
		}
		return pts, blob
	}

	seqPts, seqJSON := run(1)
	for _, workers := range []int{2, 4} {
		parPts, parJSON := run(workers)
		if !reflect.DeepEqual(seqPts, parPts) {
			t.Fatalf("workers=%d chaos points differ from sequential", workers)
		}
		if FormatChaos(seqPts) != FormatChaos(parPts) {
			t.Fatalf("workers=%d rendered report differs from sequential", workers)
		}
		if string(seqJSON) != string(parJSON) {
			t.Fatalf("workers=%d manifest JSON differs from sequential", workers)
		}
	}
}

// TestChaosRateZeroMatchesFaultFreeRun pins the other acceptance
// criterion: the sweep's control row is byte-identical to a plain
// fault-free simulation of the same cell.
func TestChaosRateZeroMatchesFaultFreeRun(t *testing.T) {
	p := chaosParams(1)
	pts, err := ChaosStudy(p, []float64{0}, []ssd.Scheme{ssd.RiF})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("got %d points", len(pts))
	}
	m, err := RunOne(p, ssd.RiF, "Ali124", 2000)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].MBps != m.Bandwidth() || pts[0].P99US != m.ReadLatencies.Percentile(99) {
		t.Fatalf("rate-0 chaos cell diverged from fault-free run: %+v vs %.2f MB/s", pts[0], m.Bandwidth())
	}
	if pts[0].Faults.Total() != 0 || pts[0].MediaErrPct != 0 {
		t.Fatalf("rate-0 cell reports fault activity: %+v", pts[0])
	}
}

// TestChaosStudyHonorsStop checks cancellation: once Stop fires, no
// new cells start, already-collected manifests survive and the study
// reports fleet.ErrStopped so callers can mark the flush partial.
func TestChaosStudyHonorsStop(t *testing.T) {
	p := chaosParams(1)
	p.Collect = obs.NewCollection()
	// Stop is polled exactly once per cell, so counting polls counts
	// cell starts: allow two cells, then cancel.
	cells := 0
	p.Stop = func() bool {
		fired := cells >= 2
		if !fired {
			cells++
		}
		return fired
	}
	pts, err := ChaosStudy(p, []float64{0, 0.01}, []ssd.Scheme{ssd.SWR, ssd.RiF})
	if !errors.Is(err, fleet.ErrStopped) {
		t.Fatalf("err = %v, want fleet.ErrStopped", err)
	}
	if len(pts) != 4 {
		t.Fatalf("partial results resized: %d slots", len(pts))
	}
	if got := p.Collect.Len(); got != 2 {
		t.Fatalf("collected %d manifests, want the 2 completed cells", got)
	}
	p.Collect.SetPartial(true)
	blob, err := json.Marshal(p.Collect)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Partial bool `json:"partial"`
	}
	if err := json.Unmarshal(blob, &decoded); err != nil || !decoded.Partial {
		t.Fatalf("partial flag not serialized: %s", blob)
	}
}

// BenchmarkChaosGrid times a result-cache miss in rifserve: the twelve
// cell chaos grid at 40 requests per cell, collected as manifests on
// one worker and rendered once, as a finished job renders them. Device
// build and the per-run registry and manifest are a large share of
// each cell at this sizing, so this is where their cost shows.
func BenchmarkChaosGrid(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := DefaultRunParams()
		p.Requests = 40
		p.Workers = 1
		p.Collect = obs.NewCollection()
		if err := RunExperiment(io.Discard, "chaos", p); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Collect.JSON(); err != nil {
			b.Fatal(err)
		}
	}
}
