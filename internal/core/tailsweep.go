package core

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/obs"
	"repro/internal/plot"
	"repro/internal/replay"
	"repro/internal/ssd"
)

// TailPoint is one (scheme, arrival intensity) cell of the open-loop
// tail sweep: the latency percentiles a load generator would report
// at that offered rate.
type TailPoint struct {
	Scheme   ssd.Scheme
	RateIOPS float64
	Requests int64

	// Read-latency percentiles (µs) from the replay's quantile sketch
	// (±stats.SketchAlpha relative error).
	P50, P99, P999, P9999 float64

	MBps float64
	// PeakInFlight and HeldArrivals locate the cell relative to the
	// scheme's saturation point: a saturated cell pins the ring and
	// holds arrivals.
	PeakInFlight int
	HeldArrivals int64
}

// Saturated reports whether the offered rate exceeded what the scheme
// could serve: the ring filled and arrivals had to wait for
// admission.
func (t TailPoint) Saturated() bool { return t.HeldArrivals > 0 }

// TailSweepSchemes is the default scheme panel: the paper's retry
// baselines against RiF (Figs. 14/17 tail comparisons).
func TailSweepSchemes() []ssd.Scheme {
	return []ssd.Scheme{ssd.Sentinel, ssd.SWR, ssd.SWRPlus, ssd.RPOnly, ssd.RiF}
}

// DefaultTailRates is the intensity ladder (IOPS) of the tailsweep
// experiment, spanning from lightly loaded to past the weakest
// scheme's saturation point on the shrunk Ali124 device at 2K P/E.
func DefaultTailRates() []float64 {
	return []float64{10000, 20000, 30000, 40000, 50000}
}

// TailSweep replays the workload open-loop at every (scheme, rate)
// combination — Poisson arrivals, bounded in-flight ring, streaming
// latency sketch — sharded across p.Workers workers. Each cell owns
// its workload generator and arrival process seeded from p.Seed, and
// results land in pre-indexed slots, so the sweep is byte-identical
// for every worker count.
func TailSweep(p RunParams, schemes []ssd.Scheme, workloadName string, pe int, rates []float64) ([]TailPoint, error) {
	if len(rates) == 0 {
		rates = DefaultTailRates()
	}
	for _, r := range rates {
		if r <= 0 {
			return nil, fmt.Errorf("core: arrival rate %v IOPS; want > 0", r)
		}
	}
	type cellKey struct {
		s    ssd.Scheme
		rate float64
	}
	var keys []cellKey
	for _, s := range schemes {
		for _, r := range rates {
			keys = append(keys, cellKey{s, r})
		}
	}
	return gridMap(p, len(keys), func(p RunParams, i int) (TailPoint, error) {
		k := keys[i]
		w, err := p.workload(workloadName)
		if err != nil {
			return TailPoint{}, err
		}
		arr, err := replay.NewPoisson(k.rate, p.Seed)
		if err != nil {
			return TailPoint{}, err
		}
		pt, err := p.openLoop(replay.FromWorkload(w, int64(p.Requests)), replay.Options{
			Config:   p.BuildConfig(k.s, pe),
			Arrivals: arr,
		}, obs.Manifest{Workload: workloadName, Requests: p.Requests, RateIOPS: k.rate})
		if err != nil {
			return TailPoint{}, fmt.Errorf("core: tailsweep %v @ %.0f IOPS: %w", k.s, k.rate, err)
		}
		return pt, nil
	})
}

// openLoop replays src under opt inside record, on a device of
// opt.Config, and reads the cell's tail point off the result.
func (p RunParams) openLoop(src replay.Source, opt replay.Options, id obs.Manifest) (TailPoint, error) {
	var res *replay.Result
	_, err := p.record(opt.Config, id, func(cfg ssd.Config) (*ssd.Metrics, error) {
		opt.Config = cfg
		var err error
		if res, err = replay.Run(src, opt); err != nil {
			return nil, err
		}
		return res.Metrics, nil
	})
	if err != nil {
		return TailPoint{}, err
	}
	return TailPoint{
		Scheme:       opt.Config.Scheme,
		RateIOPS:     id.RateIOPS,
		Requests:     res.Requests,
		P50:          res.Latency.Percentile(50),
		P99:          res.Latency.Percentile(99),
		P999:         res.Latency.Percentile(99.9),
		P9999:        res.Latency.Percentile(99.99),
		MBps:         res.Metrics.Bandwidth(),
		PeakInFlight: res.Metrics.PeakInFlight,
		HeldArrivals: res.Metrics.HeldArrivals,
	}, nil
}

// ReplayParams configures an external-trace replay sweep.
type ReplayParams struct {
	// Open returns a fresh request stream (and an optional closer) for
	// each sweep cell, so parallel cells never share a reader. A
	// single-cell sweep calls it exactly once, which is what makes
	// stdin usable there.
	Open func() (replay.Source, io.Closer, error)

	// Workload labels manifests and reports (typically the trace file
	// name).
	Workload string

	Scheme   ssd.Scheme
	PECycles int

	// Rates is the Poisson intensity ladder (IOPS); empty replays the
	// trace's own timestamps scaled by Speed.
	Rates []float64
	// Speed compresses the trace's timestamps when Rates is empty
	// (0 = 1 = as recorded).
	Speed float64

	// AgeDays is the uniform initial retention age of cold data.
	AgeDays float64
	// MaxRequests bounds each cell's replay; 0 replays the whole
	// trace.
	MaxRequests int64
	// MaxInFlight bounds the open-loop ring (0 =
	// replay.DefaultMaxInFlight).
	MaxInFlight int
	// FootprintPages compacts the trace's addresses into the simulated
	// footprint (0 keeps addresses as recorded — only safe for traces
	// already sized to the device).
	FootprintPages int64
}

// ReplaySweep replays an external trace through the open-loop engine
// at each arrival rate (or once at its recorded timestamps) and
// returns the tail points. Results land in pre-indexed slots, so the
// sweep is byte-identical for every p.Workers value.
func ReplaySweep(p RunParams, rp ReplayParams) ([]TailPoint, error) {
	if rp.Open == nil {
		return nil, fmt.Errorf("core: replay sweep needs an Open hook")
	}
	speed := rp.Speed
	if speed == 0 {
		speed = 1
	}
	n := len(rp.Rates)
	if n == 0 {
		n = 1
	}
	return gridMap(p, n, func(p RunParams, i int) (TailPoint, error) {
		var (
			arr  replay.Arrivals
			rate float64
			err  error
		)
		if len(rp.Rates) > 0 {
			rate = rp.Rates[i]
			arr, err = replay.NewPoisson(rate, p.Seed)
		} else {
			arr, err = replay.NewTraceScale(speed)
		}
		if err != nil {
			return TailPoint{}, err
		}
		src, closer, err := rp.Open()
		if err != nil {
			return TailPoint{}, err
		}
		if closer != nil {
			defer closer.Close()
		}
		pt, err := p.openLoop(src, replay.Options{
			Config:         p.BuildConfig(rp.Scheme, rp.PECycles),
			Arrivals:       arr,
			MaxRequests:    rp.MaxRequests,
			MaxInFlight:    rp.MaxInFlight,
			AgeDays:        rp.AgeDays,
			FootprintPages: rp.FootprintPages,
		}, obs.Manifest{Workload: rp.Workload, RateIOPS: rate})
		if err != nil {
			return TailPoint{}, fmt.Errorf("core: replay %q: %w", rp.Workload, err)
		}
		return pt, nil
	})
}

// TailGain reports scheme s's P99.99 reduction versus base at the
// given rate, as a fraction (0.6 = 60% lower tail). An error marks a
// missing or degenerate baseline cell.
func TailGain(pts []TailPoint, s, base ssd.Scheme, rate float64) (float64, error) {
	find := func(sc ssd.Scheme) (TailPoint, bool) {
		for _, p := range pts {
			if p.Scheme == sc && p.RateIOPS == rate {
				return p, true
			}
		}
		return TailPoint{}, false
	}
	b, ok := find(base)
	if !ok || b.P9999 <= 0 {
		return 0, fmt.Errorf("core: no %v baseline at %.0f IOPS", base, rate)
	}
	v, ok := find(s)
	if !ok {
		return 0, fmt.Errorf("core: no %v cell at %.0f IOPS", s, rate)
	}
	return 1 - v.P9999/b.P9999, nil
}

// BestSubSaturationGain scans the ladder for the largest P99.99 cut
// of s versus base at a rate where s itself is not saturated — the
// regime the paper's open-loop tail comparisons report — and returns
// the gain and its rate. Rates where the baseline is missing are
// skipped; zero cells are reported as an error.
func BestSubSaturationGain(pts []TailPoint, s, base ssd.Scheme) (gain, rate float64, err error) {
	found := false
	for _, p := range pts {
		if p.Scheme != s || p.Saturated() {
			continue
		}
		g, gerr := TailGain(pts, s, base, p.RateIOPS)
		if gerr != nil {
			continue
		}
		if !found || g > gain {
			gain, rate, found = g, p.RateIOPS, true
		}
	}
	if !found {
		return 0, 0, fmt.Errorf("core: no sub-saturation %v cell with a %v baseline", s, base)
	}
	return gain, rate, nil
}

// FormatTailSweep renders the sweep as a rate-major table plus a
// P99.99-vs-intensity chart per scheme.
func FormatTailSweep(pts []TailPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %9s %9s %9s %9s %9s %8s %6s %10s\n",
		"scheme", "rateIOPS", "p50us", "p99us", "p99.9us", "p99.99us", "MB/s", "peak", "held")
	for _, p := range pts {
		sat := ""
		if p.Saturated() {
			sat = " (sat)"
		}
		fmt.Fprintf(&b, "%-8s %9.0f %9.0f %9.0f %9.0f %9.0f %8.0f %6d %9d%s\n",
			p.Scheme, p.RateIOPS, p.P50, p.P99, p.P999, p.P9999,
			p.MBps, p.PeakInFlight, p.HeldArrivals, sat)
	}
	series := map[ssd.Scheme]*plot.Series{}
	var order []ssd.Scheme
	for _, p := range pts {
		s, ok := series[p.Scheme]
		if !ok {
			s = &plot.Series{Name: p.Scheme.String()}
			series[p.Scheme] = s
			order = append(order, p.Scheme)
		}
		s.Points = append(s.Points, plot.XY{X: p.RateIOPS / 1000, Y: p.P9999 / 1000})
	}
	var list []plot.Series
	for _, sc := range order {
		list = append(list, *series[sc])
	}
	if len(list) > 0 {
		b.WriteString("\n")
		b.WriteString(plot.Chart("P99.99 read latency (ms) vs arrival rate (kIOPS)", list, 64, 14))
	}
	return b.String()
}
