package core

import (
	"fmt"
	"strings"

	"repro/internal/faults"
	"repro/internal/ssd"
)

// The chaos sweep is the robustness counterpart of the Fig. 17
// bandwidth grid: instead of asking how fast each retry scheme is, it
// asks how gracefully each one degrades when the hardware misbehaves.
// Every fault class of internal/faults is injected at once, scaled
// from a single headline rate, and the study reports throughput, tail
// latency and the media-error fraction each scheme sustains.

// ChaosRates is the default headline fault-rate grid: a fault-free
// control plus three escalating chaos levels.
var ChaosRates = []float64{0, 0.001, 0.01, 0.05}

// ChaosSchemes are the schemes the sweep compares by default: the
// strongest baseline, the conventional retry ladder and RiF.
var ChaosSchemes = []ssd.Scheme{ssd.Sentinel, ssd.SWR, ssd.RiF}

// ChaosMix derives a full fault mixture from one headline rate. The
// scaling keeps the mixture survivable at every grid point: transient
// glitches and mispredictions (self-healing) at the full rate, the
// destructive classes (stuck blocks, dead dies) well below it.
func ChaosMix(rate float64) faults.Config {
	return faults.Config{
		TransientSenseRate: rate,
		StuckBlockRate:     rate / 4,
		DieDropoutRate:     rate / 8,
		ChannelCorruptRate: rate / 2,
		MispredictRate:     rate,
		DecodeTimeoutRate:  rate / 2,
	}
}

// ChaosPoint is one (headline rate, scheme) cell of the sweep.
type ChaosPoint struct {
	Rate        float64
	Scheme      ssd.Scheme
	MBps        float64
	P99US       float64
	MediaErrPct float64 // % of requests completing with a media error
	Unrecovered int64   // pages still failing after the retry ladder
	Faults      ssd.FaultMetrics
}

// ChaosStudy runs the (rate x scheme) chaos grid on the read-heavy
// Ali124 workload at 2K P/E cycles. Each cell gets a rate-qualified
// experiment label so collected manifests sort identically for any
// worker count. Honors p.Stop: on cancellation the completed cells'
// manifests remain in p.Collect and fleet.ErrStopped is returned.
func ChaosStudy(p RunParams, rates []float64, schemes []ssd.Scheme) ([]ChaosPoint, error) {
	if len(rates) == 0 {
		rates = ChaosRates
	}
	if len(schemes) == 0 {
		schemes = ChaosSchemes
	}
	type cellKey struct {
		rate   float64
		scheme ssd.Scheme
	}
	var keys []cellKey
	for _, r := range rates {
		for _, s := range schemes {
			keys = append(keys, cellKey{r, s})
		}
	}
	return gridMap(p, len(keys), func(p RunParams, i int) (ChaosPoint, error) {
		k := keys[i]
		p2 := p
		p2.Faults = ChaosMix(k.rate)
		if p2.Experiment == "" {
			p2.Experiment = "chaos"
		}
		p2.Experiment = fmt.Sprintf("%s[rate=%g]", p2.Experiment, k.rate)
		m, err := RunOne(p2, k.scheme, "Ali124", 2000)
		if err != nil {
			return ChaosPoint{}, err
		}
		return ChaosPoint{
			Rate:        k.rate,
			Scheme:      k.scheme,
			MBps:        m.Bandwidth(),
			P99US:       m.ReadLatencies.Percentile(99),
			MediaErrPct: 100 * m.MediaErrorRate(),
			Unrecovered: m.UnrecoveredPages,
			Faults:      m.Faults,
		}, nil
	})
}

// FormatChaos renders the sweep, one row per cell.
func FormatChaos(points []ChaosPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %-8s %9s %9s %8s %8s %8s %7s\n",
		"rate", "scheme", "MB/s", "p99us", "mederr%", "faults", "unrec", "badblk")
	for _, pt := range points {
		fmt.Fprintf(&b, "%8g %-8s %9.0f %9.0f %8.2f %8d %8d %7d\n",
			pt.Rate, pt.Scheme, pt.MBps, pt.P99US, pt.MediaErrPct,
			pt.Faults.Total(), pt.Unrecovered, pt.Faults.GrownBadBlocks)
	}
	return b.String()
}
