// Package core orchestrates the RiF reproduction experiments: it
// wires the QC-LDPC machinery, the NAND reliability model, the ODEAR
// engine and the SSD simulator into the studies behind every table
// and figure of the paper, and exposes the library-level entry points
// the cmd/ tools, examples and benchmarks share.
package core

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// RunParams sizes an experiment run.
type RunParams struct {
	// Requests is the number of host requests per simulation run. The
	// LDPC rows (Figs. 3, 10, 11, 14, soft) read it as their codeword
	// budget, split evenly (floor) over the figure's RBER points.
	Requests int
	// Seed drives all random streams.
	Seed uint64
	// FootprintPages overrides the workloads' logical footprint
	// (0 keeps the spec default).
	FootprintPages int64
	// Shrink reduces the per-plane block/page counts to keep runs
	// fast; the channel/die topology (what the experiments measure)
	// is unchanged. Zero means the full Table I array, and the LDPC
	// rows' paper-scale code (t = 1024).
	Shrink bool
	// Workers sizes the private fleet.Scheduler each grid study runs
	// its independent cells on when Pool is nil: 0 means one per CPU,
	// 1 runs the cells sequentially in index order. Results are
	// written into pre-indexed slots, so the output is byte-identical
	// for every value.
	Workers int
	// Faults configures deterministic fault injection for every
	// simulation these params run. The zero value injects nothing and
	// leaves runs byte-identical to the pre-fault simulator.
	Faults faults.Config
	// Stop, when non-nil, is polled before each grid cell starts; once
	// it reports true no new cells begin and the study returns
	// fleet.ErrStopped. Cells already running finish normally, so
	// manifests collected so far stay valid (flushed marked partial).
	Stop func() bool
	// Pool, when non-nil, is the shared scheduler the grid studies
	// submit their cells to instead of starting a private one of
	// Workers (which is then ignored) — this is how a long-running
	// service interleaves many jobs' cells across one bounded worker
	// set. Results stay byte-identical either way (pre-indexed slots),
	// so Pool never affects output, only scheduling.
	Pool *fleet.Scheduler

	// Trace, when non-nil, receives sim-time spans from every run.
	// Sharing one tracer across a parallel grid interleaves runs;
	// meaningful mostly for single-simulation experiments.
	Trace *obs.Tracer
	// Collect, when non-nil, receives one Manifest per completed
	// simulation (safe for the parallel grids); each run records into
	// its own private registry, so manifests stay per-run.
	Collect *obs.Collection
	// Tool and Experiment label collected manifests ("rifsim",
	// "fig17", ...).
	Tool       string
	Experiment string

	// cell is the index gridMap gives the copy of the params each grid
	// cell runs with; record stamps it into Manifest.Cell, so runs
	// that tie on every identity key still sort in grid order.
	cell int
}

// DefaultRunParams returns the sizing used by the cmd tools.
func DefaultRunParams() RunParams {
	return RunParams{Requests: 3000, Seed: 1, FootprintPages: 1 << 17, Shrink: true}
}

// BuildConfig derives the simulator configuration these params run a
// (scheme, P/E) cell under. Exported so the result cache can fold the
// complete derived configuration — defaults included — into its
// content address: a change to ssd.DefaultConfig changes the bytes
// here and therefore the cache key.
func (p RunParams) BuildConfig(scheme ssd.Scheme, pe int) ssd.Config {
	cfg := ssd.DefaultConfig(scheme, pe)
	cfg.Seed = p.Seed
	cfg.Faults = p.Faults
	if p.Shrink {
		cfg.Geometry.BlocksPerPlane = 256
		cfg.Geometry.PagesPerBlock = 128
	}
	return cfg
}

// gridMap runs an n-cell study grid on a fleet.Scheduler: p.Pool when
// the caller shares one, otherwise a private scheduler of p.Workers
// (capped at n) that is stopped when the grid returns. It is the only
// fan-out in core, so every grid honours Workers, Pool and Stop alike.
// Cell i runs fn on a copy of p that carries i as its cell index.
func gridMap[T any](p RunParams, n int, fn func(p RunParams, i int) (T, error)) ([]T, error) {
	sched := p.Pool
	if sched == nil {
		sched = fleet.NewScheduler(min(fleet.Workers(p.Workers), max(n, 1)))
		defer sched.Stop()
	}
	return fleet.MapOn(sched, n, p.Stop, func(i int) (T, error) {
		c := p
		c.cell = i
		return fn(c, i)
	})
}

// spec looks up a Table II workload with p's footprint override.
func (p RunParams) spec(name string) (trace.Spec, error) {
	spec, err := trace.ByName(name)
	if err != nil {
		return trace.Spec{}, err
	}
	if p.FootprintPages > 0 {
		spec.FootprintPages = p.FootprintPages
	}
	return spec, nil
}

// workload instantiates a Table II workload generator.
func (p RunParams) workload(name string) (*trace.Generator, error) {
	spec, err := p.spec(name)
	if err != nil {
		return nil, err
	}
	return trace.NewGenerator(spec, p.Seed)
}

// RunOne simulates a single (scheme, workload, P/E) cell and returns
// its metrics. When p.Collect is set, the run is also recorded as a
// manifest carrying its full configuration and registry snapshot.
func RunOne(p RunParams, scheme ssd.Scheme, workloadName string, pe int) (*ssd.Metrics, error) {
	return p.runWorkload(p.BuildConfig(scheme, pe), workloadName)
}

// runWorkload runs cfg closed-loop for p.Requests requests of the
// named Table II workload.
func (p RunParams) runWorkload(cfg ssd.Config, workloadName string) (*ssd.Metrics, error) {
	if p.Requests <= 0 {
		return nil, fmt.Errorf("core: requests = %d", p.Requests)
	}
	w, err := p.workload(workloadName)
	if err != nil {
		return nil, err
	}
	return p.closedLoop(cfg, workloadName, w, p.Requests)
}

// closedLoop runs n requests of w on a fresh device of cfg inside
// record; label names w in the manifest.
func (p RunParams) closedLoop(cfg ssd.Config, label string, w ssd.Workload, n int) (*ssd.Metrics, error) {
	return p.record(cfg, obs.Manifest{Workload: label, Requests: n}, func(cfg ssd.Config) (*ssd.Metrics, error) {
		s, err := ssd.New(cfg, w)
		if err != nil {
			return nil, err
		}
		return s.Run(n)
	})
}

// record runs one simulation of cfg — with p.Trace attached and, when
// p.Collect is set, a private registry — and collects its manifest:
// id's Workload, Requests and RateIOPS, cfg's scheme, P/E and seed,
// the params' labels and cell index, the config, both clocks and the
// registry snapshot. A zero Requests becomes the count the run
// completed. Every simulation in core runs through here.
func (p RunParams) record(cfg ssd.Config, id obs.Manifest, simulate func(ssd.Config) (*ssd.Metrics, error)) (*ssd.Metrics, error) {
	cfg.Trace = p.Trace
	var reg *obs.Registry
	if p.Collect != nil {
		reg = obs.NewRegistry()
		cfg.Obs = reg
	}
	start := time.Now() //riflint:allow wallclock -- host-side runtime for the manifest, never feeds the sim
	m, err := simulate(cfg)
	if err != nil || p.Collect == nil {
		return m, err
	}
	id.Tool, id.Experiment, id.Cell, id.Config = p.Tool, p.Experiment, p.cell, cfg
	id.Scheme, id.PECycles, id.Seed = cfg.Scheme.String(), cfg.PECycles, cfg.Seed
	if id.Requests == 0 {
		id.Requests = int(m.RequestsCompleted)
	}
	id.SimTimeNS = int64(m.Makespan)
	//riflint:allow wallclock -- host-side runtime for the manifest, never feeds the sim
	id.WallTimeS = time.Since(start).Seconds()
	id.BandwidthM = m.Bandwidth()
	id.Metrics = reg.Snapshot()
	p.Collect.Add(id)
	return m, nil
}
