// Command rifsim runs every row of the RiF reproduction's experiment
// table: the code-level figures (3, 10, 11, 14, soft), the NAND
// characterization (4, 12, calibrate), the SSD-level figures (6–8,
// 17–19), the §VI-C overhead, the ablations and the studies.
//
// Usage:
//
//	rifsim -fig 17 [-requests 3000] [-seed 1] [-full]
//	rifsim -fig 3 -requests 1600        # LDPC rows: -requests codewords over the RBER points
//	rifsim -alist h.alist [-full]       # write the LDPC rows' parity-check matrix
//	rifsim -fig 18 -metrics out.json    # per-run manifests (config, clocks, counters)
//	rifsim -fig 19 -chrome-trace t.json # sim-time spans for Perfetto/chrome://tracing
//	rifsim -fig 6 -json                 # manifests as JSON on stdout, no text report
//	rifsim -fig 17 -prom metrics.prom   # Prometheus text exposition
//	rifsim -fig overhead
//	rifsim -fig chaos -timeout 30s      # fault-injection sweep; timeout/^C cancel
//	                                    # cleanly and flush partial manifests
//	rifsim -fig tailsweep               # open-loop P99.99-vs-intensity sweep
//	rifsim -fig agesweep                # a simulated drive-year: read disturb,
//	                                    # read-reclaim and wear, per scheme
//	rifsim -replay t.csv -rates 10000,20000,50000 -scheme RiFSSD
//	tracegen -n 1000000 | rifsim -replay - -rate 30000
//
// -replay streams a recorded trace (native CSV or MSR-Cambridge,
// auto-detected) through the open-loop arrival engine: memory stays
// flat however long the trace is, and latencies come from a mergeable
// quantile sketch instead of a per-request slice.
//
// Run rifsim -fig help (or any unknown figure) to list every
// experiment and ablation.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/ssd"
	"repro/internal/trace"
)

func main() {
	fig := flag.String("fig", "17", "experiment: one of "+strings.Join(core.ValidExperiments(), ", "))
	replayFile := flag.String("replay", "", "replay a trace file open-loop instead of running -fig (native CSV or MSR-Cambridge format, auto-detected; \"-\" reads stdin)")
	rate := flag.Float64("rate", 0, "with -replay: Poisson arrival rate in IOPS (0 honours the trace's own timestamps)")
	rates := flag.String("rates", "", "with -replay: comma-separated Poisson arrival-rate ladder in IOPS (sweeps one cell per rate)")
	speed := flag.Float64("speed", 1, "with -replay and no rate: trace-timestamp speedup (2 = twice as fast)")
	schemeName := flag.String("scheme", "RiFSSD", "with -replay: retry scheme to simulate")
	pe := flag.Int("pe", 2000, "with -replay: P/E cycle wear state")
	inflight := flag.Int("inflight", 0, "with -replay: open-loop in-flight ring bound (0 = default)")
	age := flag.Float64("age", 30, "with -replay: initial retention age of cold data, days")
	requests := flag.Int("requests", 3000, "host requests per simulation run (with -replay: cap per cell; unset replays the whole trace)")
	seed := flag.Uint64("seed", 1, "random seed")
	full := flag.Bool("full", false, "simulate the full 2-TiB array instead of a shrunken one")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"parallel simulation workers for grid experiments (1 = sequential; the report is byte-identical either way)")
	metrics := flag.String("metrics", "", "write per-run manifests (config, seed, clocks, final counters) as JSON to this file")
	chromeTrace := flag.String("chrome-trace", "", "write sim-time spans as Chrome trace_event JSON to this file")
	prom := flag.String("prom", "", "write per-run metrics in Prometheus text exposition format to this file")
	jsonOut := flag.Bool("json", false, "print the per-run manifests as JSON on stdout and suppress the text report")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (taken after the run) to this file")
	timeout := flag.Duration("timeout", 0,
		"stop launching new grid cells after this wall-clock duration (0 = no limit); completed runs are flushed as partial artifacts")
	alist := flag.String("alist", "", "write the LDPC rows' parity-check matrix to this file (alist format) and exit")
	flag.Parse()

	if err := validateFlags(*workers, *requests); err != nil {
		fmt.Fprintln(os.Stderr, "rifsim:", err)
		os.Exit(2)
	}

	p := core.DefaultRunParams()
	p.Requests = *requests
	p.Seed = *seed
	p.Shrink = !*full
	p.Workers = *workers
	p.Tool = "rifsim"
	p.Experiment = *fig
	p.Stop = cancelHook(*timeout)
	if err := p.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "rifsim:", err)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rifsim:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "rifsim:", err)
			os.Exit(1)
		}
	}

	var collect *obs.Collection
	if *metrics != "" || *prom != "" || *jsonOut {
		collect = obs.NewCollection()
		p.Collect = collect
	}
	var tracer *obs.Tracer
	if *chromeTrace != "" {
		tracer = obs.NewTracer(0)
		p.Trace = tracer
	}

	out := io.Writer(os.Stdout)
	if *jsonOut {
		out = io.Discard
	}

	var err error
	if *alist != "" {
		err = writeAlist(*alist, p)
	} else if *replayFile != "" {
		p.Experiment = "replay"
		err = runReplay(out, p, replayOptions{
			file:     *replayFile,
			rate:     *rate,
			rates:    *rates,
			speed:    *speed,
			scheme:   *schemeName,
			pe:       *pe,
			inflight: *inflight,
			age:      *age,
			requests: requestsCap(*requests),
		})
	} else {
		// The dispatcher is shared with cmd/rifserve, so a served job's
		// report is byte-identical to the same spec run here.
		err = core.RunExperiment(out, *fig, p)
	}
	if errors.Is(err, fleet.ErrStopped) {
		// Cancellation (timeout or ^C) is a clean exit: the completed
		// cells' manifests are flushed, marked partial.
		collect.SetPartial(true)
		fmt.Fprintln(os.Stderr, "rifsim: stopped before the grid completed; flushing partial artifacts")
		err = nil
	}
	if err == nil {
		err = writeArtifacts(collect, tracer, *metrics, *chromeTrace, *prom, *jsonOut)
	}
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if memErr := writeMemProfile(*memProfile); memErr != nil && err == nil {
		err = memErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rifsim:", err)
		os.Exit(1)
	}
}

// cancelHook arms the run's cancellation sources — an optional
// wall-clock timeout and SIGINT/SIGTERM — and returns the stop
// predicate the grids poll between cells. All of this is host-side
// control flow: it decides when to stop launching simulations and
// never feeds a value into one, so sim determinism is unaffected (a
// cancelled run's completed cells match the full run's).
func cancelHook(timeout time.Duration) func() bool {
	var stopped atomic.Bool
	if timeout > 0 {
		//riflint:allow wallclock -- host-side cancellation timer, never feeds the sim
		time.AfterFunc(timeout, func() { stopped.Store(true) })
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		stopped.Store(true)
		// Restore default handling so a second ^C force-kills.
		signal.Stop(sigc)
	}()
	return stopped.Load
}

// writeAlist exports the parity-check matrix the LDPC rows run under p
// (alist format), for cross-checking against external LDPC tools.
func writeAlist(path string, p core.RunParams) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	code := p.Code().Build()
	if err := code.WriteAlist(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %dx%d parity-check matrix to %s\n", code.M(), code.N(), path)
	return nil
}

// writeMemProfile snapshots the heap (after a GC, so the profile
// reflects live steady-state allocations) into path; a "" path is a
// no-op.
func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeArtifacts emits the machine-readable outputs after a
// successful run.
func writeArtifacts(collect *obs.Collection, tracer *obs.Tracer, metricsPath, tracePath, promPath string, jsonOut bool) error {
	if metricsPath != "" {
		if err := collect.WriteFile(metricsPath); err != nil {
			return err
		}
	}
	if promPath != "" {
		f, err := os.Create(promPath)
		if err != nil {
			return err
		}
		if err := collect.WritePrometheus(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if jsonOut {
		return collect.WriteJSON(os.Stdout)
	}
	return nil
}

// validateFlags rejects the numeric CLI inputs that used to be
// silently reinterpreted: -workers 0 or negative no longer means
// "auto" (pass nothing to get one worker per CPU), and a non-positive
// -requests no longer fails deep inside a study.
func validateFlags(workers, requests int) error {
	if workers < 1 {
		return fmt.Errorf("-workers must be >= 1 (got %d); omit the flag for one worker per CPU", workers)
	}
	if requests < 1 {
		return fmt.Errorf("-requests must be >= 1 (got %d)", requests)
	}
	return nil
}

// replayOptions carries the -replay flag set.
type replayOptions struct {
	file     string
	rate     float64
	rates    string
	speed    float64
	scheme   string
	pe       int
	inflight int
	age      float64
	requests int64
}

// requestsCap distinguishes an explicit -requests (a per-cell cap)
// from the untouched default (replay the whole trace).
func requestsCap(requests int) int64 {
	explicit := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "requests" {
			explicit = true
		}
	})
	if explicit {
		return int64(requests)
	}
	return 0
}

// parseRates turns -rate/-rates into the sweep ladder (nil = honour
// the trace's timestamps).
func parseRates(rate float64, rates string) ([]float64, error) {
	if rates != "" {
		if rate != 0 {
			return nil, fmt.Errorf("-rate and -rates are mutually exclusive")
		}
		var out []float64
		for _, s := range strings.Split(rates, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("-rates entry %q: want a positive IOPS value", s)
			}
			out = append(out, v)
		}
		return out, nil
	}
	if rate != 0 {
		if rate < 0 {
			return nil, fmt.Errorf("-rate %v: want a positive IOPS value", rate)
		}
		return []float64{rate}, nil
	}
	return nil, nil
}

// runReplay drives the open-loop trace replay: one cell per arrival
// rate (or one cell at the trace's own timestamps), reported as a
// tail-latency table.
func runReplay(out io.Writer, p core.RunParams, o replayOptions) error {
	scheme, err := ssd.SchemeByName(o.scheme)
	if err != nil {
		return err
	}
	ladder, err := parseRates(o.rate, o.rates)
	if err != nil {
		return err
	}
	if o.file == "-" && len(ladder) > 1 {
		return fmt.Errorf("stdin replay cannot sweep %d rates (the stream is consumed by the first cell); pass a file or a single -rate", len(ladder))
	}
	pageBytes := nand.PaperGeometry().PageBytes
	open := func() (replay.Source, io.Closer, error) {
		if o.file == "-" {
			src, err := trace.NewStream(os.Stdin, pageBytes, -1)
			return src, nil, err
		}
		f, err := os.Open(o.file)
		if err != nil {
			return nil, nil, err
		}
		src, err := trace.NewStream(f, pageBytes, -1)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		return src, f, nil
	}
	pts, err := core.ReplaySweep(p, core.ReplayParams{
		Open:           open,
		Workload:       o.file,
		Scheme:         scheme,
		PECycles:       o.pe,
		Rates:          ladder,
		Speed:          o.speed,
		AgeDays:        o.age,
		MaxRequests:    o.requests,
		MaxInFlight:    o.inflight,
		FootprintPages: p.FootprintPages,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Open-loop replay of %s — %v at %d P/E cycles\n", o.file, scheme, o.pe)
	fmt.Fprint(out, core.FormatTailSweep(pts))
	return nil
}
