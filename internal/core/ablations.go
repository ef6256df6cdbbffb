package core

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/ssd"
)

// The ablations quantify the design choices DESIGN.md calls out: the
// RP chunk size (§V-A1), the channel ECC buffer depth (§III-B3), the
// prediction accuracy requirement (§IV-B) and the footnote-4 second
// prediction pass.

// ChunkAblationPoint is one RP chunk-size configuration.
type ChunkAblationPoint struct {
	ChunkKiB  int
	TPredUS   float64
	Floor     float64 // asymptotic prediction accuracy
	MBps      float64
	UncorFrac float64
}

// chunkConfigs maps chunk size to its prediction latency (the page
// buffer readout scales with the chunk, §V-B: 2.5 us for 4 KiB) and
// its accuracy floor (smaller chunks sample less of the page, so the
// chunk-to-page RBER noise of Fig. 12 costs accuracy).
var chunkConfigs = []struct {
	kib   int
	tPred float64
	floor float64
}{
	{1, 0.625, 0.975},
	{2, 1.25, 0.988},
	{4, 2.5, 0.995},
	{8, 5.0, 0.998},
	{16, 10.0, 0.999},
}

// AblateChunkSize sweeps the RP chunk size on a worn, read-heavy run
// and reports the bandwidth/accuracy trade the paper resolves at
// 4 KiB.
func AblateChunkSize(p RunParams) ([]ChunkAblationPoint, error) {
	return gridMap(p, len(chunkConfigs), func(p RunParams, i int) (ChunkAblationPoint, error) {
		cc := chunkConfigs[i]
		cfg := p.BuildConfig(ssd.RiF, 2000)
		cfg.Timing.TPred = sim.Time(cc.tPred * float64(sim.Microsecond))
		cfg.PredictionFloor = cc.floor
		m, err := p.runWorkload(cfg, "Ali124")
		if err != nil {
			return ChunkAblationPoint{}, err
		}
		_, _, uncor, _ := m.Channels.Fractions()
		return ChunkAblationPoint{
			ChunkKiB:  cc.kib,
			TPredUS:   cc.tPred,
			Floor:     cc.floor,
			MBps:      m.Bandwidth(),
			UncorFrac: uncor,
		}, nil
	})
}

// BufferAblationPoint is one ECC buffer depth configuration.
type BufferAblationPoint struct {
	Slots       int
	MBps        float64
	ECCWaitFrac float64
}

// AblateECCBuffer sweeps the channel ECC raw-data buffer depth for
// the off-chip baseline, showing how much of the ECCWAIT loss deeper
// buffers can (and cannot) recover.
func AblateECCBuffer(p RunParams, scheme ssd.Scheme) ([]BufferAblationPoint, error) {
	depths := []int{1, 2, 4, 8, 16}
	return gridMap(p, len(depths), func(p RunParams, i int) (BufferAblationPoint, error) {
		cfg := p.BuildConfig(scheme, 2000)
		cfg.ECCBufferSlots = depths[i]
		m, err := p.runWorkload(cfg, "Ali124")
		if err != nil {
			return BufferAblationPoint{}, err
		}
		_, _, _, wait := m.Channels.Fractions()
		return BufferAblationPoint{Slots: depths[i], MBps: m.Bandwidth(), ECCWaitFrac: wait}, nil
	})
}

// AccuracyAblationPoint is one prediction-floor configuration.
type AccuracyAblationPoint struct {
	Floor     float64
	MBps      float64
	UncorFrac float64
}

// AblateAccuracy sweeps the RP accuracy floor, quantifying how much
// prediction quality RiF's benefit actually needs (§IV-B's "
// sufficiently high prediction accuracy" requirement).
func AblateAccuracy(p RunParams) ([]AccuracyAblationPoint, error) {
	floors := []float64{0.80, 0.90, 0.95, 0.98, 0.995}
	return gridMap(p, len(floors), func(p RunParams, i int) (AccuracyAblationPoint, error) {
		cfg := p.BuildConfig(ssd.RiF, 2000)
		cfg.PredictionFloor = floors[i]
		m, err := p.runWorkload(cfg, "Ali124")
		if err != nil {
			return AccuracyAblationPoint{}, err
		}
		_, _, uncor, _ := m.Channels.Fractions()
		return AccuracyAblationPoint{Floor: floors[i], MBps: m.Bandwidth(), UncorFrac: uncor}, nil
	})
}

// SecondCheckResult compares RiF with and without the footnote-4
// second prediction pass under conditions harsh enough that some
// re-reads stay uncorrectable.
type SecondCheckResult struct {
	Without, With ssd.Metrics
}

// AblateSecondCheck measures the second-check extension at very heavy
// wear (3K P/E), where adjusted-VREF re-reads occasionally remain
// above the capability.
func AblateSecondCheck(p RunParams) (*SecondCheckResult, error) {
	runs, err := gridMap(p, 2, func(p RunParams, i int) (*ssd.Metrics, error) {
		cfg := p.BuildConfig(ssd.RiF, 3000)
		cfg.RiFSecondCheck = i == 1
		return p.runWorkload(cfg, "Ali124")
	})
	if err != nil {
		return nil, err
	}
	return &SecondCheckResult{Without: *runs[0], With: *runs[1]}, nil
}

// SchedulingPoint is one die-policy configuration result.
type SchedulingPoint struct {
	Policy      ssd.DiePolicy
	Scheme      ssd.Scheme
	MBps        float64
	P99US       float64
	Suspensions int64
}

// AblateDieScheduling sweeps the die scheduling policy (FIFO /
// read-priority / program suspension) for the given schemes on a
// mixed read-write workload: suspension is the orthogonal
// modern-controller optimization, and the study shows it is
// complementary to — not a substitute for — RiF.
func AblateDieScheduling(p RunParams, schemes []ssd.Scheme) ([]SchedulingPoint, error) {
	type cellKey struct {
		scheme ssd.Scheme
		policy ssd.DiePolicy
	}
	var keys []cellKey
	for _, scheme := range schemes {
		for _, policy := range []ssd.DiePolicy{ssd.DieFIFO, ssd.DieReadPriority, ssd.DieSuspension} {
			keys = append(keys, cellKey{scheme, policy})
		}
	}
	return gridMap(p, len(keys), func(p RunParams, i int) (SchedulingPoint, error) {
		k := keys[i]
		cfg := p.BuildConfig(k.scheme, 2000)
		cfg.DiePolicy = k.policy
		m, err := p.runWorkload(cfg, "Sys0")
		if err != nil {
			return SchedulingPoint{}, err
		}
		return SchedulingPoint{
			Policy:      k.policy,
			Scheme:      k.scheme,
			MBps:        m.Bandwidth(),
			P99US:       m.ReadLatencies.Percentile(99),
			Suspensions: m.Suspensions,
		}, nil
	})
}

// FormatScheduling renders the die-policy sweep.
func FormatScheduling(points []SchedulingPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-14s %9s %9s %12s\n", "scheme", "policy", "MB/s", "p99us", "suspensions")
	for _, pt := range points {
		fmt.Fprintf(&b, "%-8s %-14s %9.0f %9.0f %12d\n",
			pt.Scheme, pt.Policy, pt.MBps, pt.P99US, pt.Suspensions)
	}
	return b.String()
}

// FormatChunkAblation renders the chunk-size sweep.
func FormatChunkAblation(points []ChunkAblationPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%7s %8s %7s %9s %7s\n", "chunk", "tPRED", "floor", "MB/s", "uncor")
	for _, pt := range points {
		fmt.Fprintf(&b, "%5dKi %6.2fus %7.3f %9.0f %6.1f%%\n",
			pt.ChunkKiB, pt.TPredUS, pt.Floor, pt.MBps, 100*pt.UncorFrac)
	}
	return b.String()
}

// FormatBufferAblation renders the ECC buffer sweep.
func FormatBufferAblation(points []BufferAblationPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %9s %9s\n", "slots", "MB/s", "eccwait")
	for _, pt := range points {
		fmt.Fprintf(&b, "%6d %9.0f %8.1f%%\n", pt.Slots, pt.MBps, 100*pt.ECCWaitFrac)
	}
	return b.String()
}

// FormatAccuracyAblation renders the accuracy sweep.
func FormatAccuracyAblation(points []AccuracyAblationPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%7s %9s %7s\n", "floor", "MB/s", "uncor")
	for _, pt := range points {
		fmt.Fprintf(&b, "%7.3f %9.0f %6.1f%%\n", pt.Floor, pt.MBps, 100*pt.UncorFrac)
	}
	return b.String()
}
