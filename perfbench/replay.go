package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// replay-write replays an Ali2-shaped stream (27% reads) open-loop with
// Poisson arrivals below saturation, at 0 P/E, on a geometry small
// enough that GC and read-reclaim run all the time. It puts the write
// path (write cache, flushers, FTL, GC, reclaim) beside the read path,
// with replay arrivals and the stats.Sketch latency sketch.
const (
	// replayPassRequests is one replay's length; a run repeats the same
	// seeded replay, so every pass must produce identical statistics.
	replayPassRequests = 100_000
	replayRateIOPS     = 30_000
	// replayWindow is the requests per timed window: about 30 ms of host
	// time, long enough that one scheduler or GC hiccup does not decide a
	// window's time.
	replayWindow    = 5_000
	replayFootprint = 1 << 16
	// replayReclaimAt is scaled to one pass: a block read this often is
	// reclaimed, as the default 100K-read limit would over a drive's life.
	replayReclaimAt = 64
)

// replayConfig is the replay device: RiF at 0 P/E with 32 blocks of 64
// pages per plane, whose write region (the upper half of every plane)
// holds 131,072 pages; a pass writes about 200K host pages into it.
func replayConfig(seed uint64) ssd.Config {
	cfg := ssd.DefaultConfig(ssd.RiF, 0)
	cfg.Seed = seed
	cfg.Geometry.BlocksPerPlane = 32
	cfg.Geometry.PagesPerBlock = 64
	cfg.ReadReclaimThreshold = replayReclaimAt
	return cfg
}

type passRun struct {
	res     *replay.Result
	events  uint64
	windows []float64 // ms per window of replayWindow requests
	total   time.Duration
}

// replayPass runs one seeded replay. traced attaches an obs registry
// (for the event count); acc, when non-nil, receives the per-layer
// counts.
func replayPass(seed uint64, traced bool, tr *tracer, parent int32, item int64, acc *simAcc) (passRun, error) {
	start := time.Now()
	root := tr.begin("replay.pass", parent, item)
	defer tr.end(root)
	spec, err := trace.ByName("Ali2")
	if err != nil {
		return passRun{}, err
	}
	spec.FootprintPages = replayFootprint
	g, err := trace.NewGenerator(spec, seed)
	if err != nil {
		return passRun{}, err
	}
	arr, err := replay.NewPoisson(replayRateIOPS, seed)
	if err != nil {
		return passRun{}, err
	}
	cfg := replayConfig(seed)
	var w interface{ Next() trace.Request } = g
	var tw *timedWorkload
	var reg *obs.Registry
	if traced {
		tw = &timedWorkload{g: g}
		w = tw
		reg = obs.NewRegistry()
		cfg.Obs = reg
	}
	var r passRun
	var sp int32
	// The first window starts at the first progress call, so device
	// build stays out of the window times.
	var last time.Time
	progress := func(int64) {
		now := time.Now()
		if !last.IsZero() {
			r.windows = append(r.windows, ms(now.Sub(last)))
			tr.record("replay.window", sp, item, last, now)
		}
		last = now
	}
	h0 := readHeap()
	sp = tr.begin("replay.Run", root, item)
	res, err := replay.Run(replay.FromWorkload(w, replayPassRequests), replay.Options{
		Config:        cfg,
		Arrivals:      arr,
		Progress:      progress,
		ProgressEvery: replayWindow,
	})
	runD := tr.end(sp)
	if err != nil {
		return passRun{}, err
	}
	r.res, r.total = res, time.Since(start)
	r.events = uint64(reg.Snapshot().Counters["sim_events_processed_total"])
	if acc != nil {
		acc.add(res.Metrics, r.events, runD.Nanoseconds(), readHeap().since(h0).objs, reg, tw)
	}
	return r, nil
}

func runReplay(e *env) (*outcome, error) {
	o := &outcome{unit: "sim_req", item: "window", tailQ: 0.95}
	traced := e.tr != nil
	var first *simSig
	var held, reqs int64
	note := func(r passRun, what string) {
		m := r.res.Metrics
		s := signature(m, r.events)
		s.stats += fmt.Sprintf(" sketch_p50=%.3f sketch_p99=%.3f", r.res.Latency.Percentile(50), r.res.Latency.Percentile(99))
		if first == nil {
			first = &s
		} else {
			checkRepeat(&o.checks, "replay-write "+what, *first, s)
		}
		o.checks.check(r.res.Requests == replayPassRequests, "replay-write %s: %d of %d requests replayed", what, r.res.Requests, replayPassRequests)
		o.checks.check(m.GCRuns > 0, "replay-write %s: zero GC runs; the write path went unloaded", what)
		o.checks.check(m.HeldArrivals == 0, "replay-write %s: %d arrivals held; the device saturated", what, m.HeldArrivals)
		held += m.HeldArrivals
		reqs += r.res.Requests
	}
	var err error
	o.setups, err = setUp(e.reps, nil, func() error {
		r, err := replayPass(e.seed, traced, nil, 0, -1, nil)
		if err != nil {
			return fmt.Errorf("warm-up pass: %w", err)
		}
		note(r, "warm-up")
		return nil
	})
	if err != nil {
		return nil, err
	}

	var acc *simAcc
	if traced {
		acc = &simAcc{}
	}
	var rates []float64
	tp := startTimed()
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		r, err := replayPass(e.seed, traced, e.tr, e.span, int64(k), acc)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", k, err)
		}
		note(r, fmt.Sprintf("pass %d", k))
		o.ops += r.res.Requests
		o.itemMS = append(o.itemMS, r.windows...)
		rates = append(rates, float64(r.res.Requests)/r.total.Seconds())
	}
	tp.finish(o)
	o.opsPerSec = median(rates)

	m := first.stats
	o.digest = fmt.Sprintf("sha256:%x", sha256.Sum256([]byte(m)))[:31]
	o.notes = append(o.notes, fmt.Sprintf("passes: %d, write amp %.4f", len(rates), first.writeAmp))

	if acc != nil {
		o.layers = acc.simLayers()
		acc.writeLayers(o.layers)
		o.layers["replay.window_ms_p50"] = median(o.itemMS)
		o.layers["replay.window_ms_p95"] = quantile(o.itemMS, 0.95)
		o.layers["replay.held_frac"] = ratio(float64(held), float64(reqs))
		o.layers["stats.sketch_add_ns"] = probeSketchAdd(e.seed)
	}
	return o, nil
}
