package core

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/fleet"
)

func TestValidExperimentMatchesList(t *testing.T) {
	for _, name := range ValidExperiments() {
		if !ValidExperiment(name) {
			t.Errorf("listed experiment %q not valid", name)
		}
	}
	for _, name := range []string{"", "fig17", "Chaos", "6 ", "99"} {
		if ValidExperiment(name) {
			t.Errorf("%q accepted as an experiment", name)
		}
	}
}

// TestRunParamsValidate pins the shared numeric-input validation both
// front-ends (rifsim flags, rifserve job specs) rely on.
func TestRunParamsValidate(t *testing.T) {
	good := DefaultRunParams()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	// Workers 0 means auto and is valid at this layer.
	auto := good
	auto.Workers = 0
	if err := auto.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(*RunParams){
		"zero requests":      func(p *RunParams) { p.Requests = 0 },
		"negative requests":  func(p *RunParams) { p.Requests = -3 },
		"negative workers":   func(p *RunParams) { p.Workers = -1 },
		"negative footprint": func(p *RunParams) { p.FootprintPages = -1 },
		"bad fault rate":     func(p *RunParams) { p.Faults = faults.Config{StuckBlockRate: 2} },
	} {
		p := DefaultRunParams()
		mut(&p)
		if p.Validate() == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestRunExperimentUnknownName(t *testing.T) {
	err := RunExperiment(io.Discard, "bogus", DefaultRunParams())
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v, want unknown-experiment error", err)
	}
	if !strings.Contains(err.Error(), "chaos") {
		t.Fatalf("error must list the valid experiments: %v", err)
	}
}

// TestRunExperimentWorkerIndependence is the replay guarantee the
// serving layer builds on: the report bytes depend only on the
// experiment name and the (requests, seed, faults) inputs — never on
// how many workers sharded the grid.
func TestRunExperimentWorkerIndependence(t *testing.T) {
	p := DefaultRunParams()
	p.Requests = 40
	p.Seed = 7
	var one, many bytes.Buffer
	p.Workers = 1
	if err := RunExperiment(&one, "chaos", p); err != nil {
		t.Fatal(err)
	}
	p.Workers = 4
	if err := RunExperiment(&many, "chaos", p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), many.Bytes()) {
		t.Fatalf("report bytes depend on worker count:\n--- 1 worker ---\n%s\n--- 4 workers ---\n%s",
			one.String(), many.String())
	}
}

// TestTimelinesHonorStopAndPool: the Figs. 7/8 timelines and the
// code-level rows (Figs. 3, 10, 11, 14 and the soft-decision study)
// are grids like any other, so a fired Stop hook cancels them and a
// shared Pool runs their cells. A stopped scheduler rejects every
// submission, so ErrStopped from it proves the cells went to p.Pool;
// neither case may panic.
func TestTimelinesHonorStopAndPool(t *testing.T) {
	closed := fleet.NewScheduler(1)
	closed.Stop()
	for _, name := range []string{"7", "8", "3", "10", "11", "14", "soft"} {
		p := DefaultRunParams()
		p.Stop = func() bool { return true }
		if err := RunExperiment(io.Discard, name, p); !errors.Is(err, fleet.ErrStopped) {
			t.Errorf("fig %s with a fired Stop: err = %v, want fleet.ErrStopped", name, err)
		}
		p = DefaultRunParams()
		p.Pool = closed
		if err := RunExperiment(io.Discard, name, p); !errors.Is(err, fleet.ErrStopped) {
			t.Errorf("fig %s on a stopped Pool: err = %v, want fleet.ErrStopped", name, err)
		}
	}
}
