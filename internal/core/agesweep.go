package core

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// The drive-age sweep fast-forwards a simulated drive-year in
// wall-clock minutes: each epoch simulates a short observation window
// on a device seeded with the accumulated per-block wear and disturb
// state, then extrapolates the window's sense and erase rates across
// the whole epoch analytically. The simulated windows capture the
// behaviour aging changes — retry rates under power-law read disturb,
// read-reclaim migrations competing with GC for die time — while the
// closed-form fast-forward carries the state between epochs, so a
// year of drive life costs epochs × one short run instead of a year
// of simulated time.

const (
	// ageSweepEpochs splits the simulated drive-year into monthly
	// checkpoints.
	ageSweepEpochs = 12
	// ageSweepEpochDays is one mean Gregorian month, so 12 epochs are
	// exactly a year.
	ageSweepEpochDays = 30.4375
	// ageSweepDuty is the drive's assumed utilization: the closed-loop
	// window saturates the device, so extrapolating it across a month
	// at full rate would model a drive running flat out for a year.
	// The duty factor scales the window's sense/erase rates down to a
	// heavily used but not saturated enterprise drive; it is
	// calibrated so media errors stay at zero through mid-life and
	// emerge in the final months, with the drive degraded but
	// serviceable at year end. A side effect worth knowing: faster
	// schemes serve more reads per busy-hour at equal duty, so RiF
	// ages its media faster than the baselines it outperforms.
	ageSweepDuty = 0.01
)

// AgeSweepSchemes lists the schemes the drive-age figure compares:
// the off-chip baseline, Swift-Read, controller-side prediction, and
// full RiF.
func AgeSweepSchemes() []ssd.Scheme {
	return []ssd.Scheme{ssd.Sentinel, ssd.SWR, ssd.RPOnly, ssd.RiF}
}

// AgePoint is one (scheme, drive age) checkpoint of the sweep.
type AgePoint struct {
	Scheme ssd.Scheme
	// AgeDays is the drive age at the end of the epoch.
	AgeDays float64
	// MBps is the bandwidth the aged device sustained in the epoch's
	// observation window.
	MBps float64
	// MediaErrRate is the fraction of requests that completed with an
	// uncorrectable page.
	MediaErrRate float64
	// RetryRate is the fraction of page reads needing a retry.
	RetryRate float64
	// Reclaims is the epoch's extrapolated read-reclaim count: blocks
	// whose accumulated senses crossed the reclaim threshold.
	Reclaims int64
	// AvgPE is the array's mean P/E wear (base cycles plus accumulated
	// erases) at the end of the epoch.
	AvgPE float64
}

// AgeSweep runs the drive-age study: for each scheme, epochs
// consecutive windows with the per-block state carried forward. The
// schemes shard across the worker grid; the epochs within a scheme are
// inherently sequential (each seeds from the last). Output is
// byte-identical at any worker count: every cell writes a pre-indexed
// slot and the fast-forward is pure integer arithmetic.
func AgeSweep(p RunParams, schemes []ssd.Scheme, epochs int, epochDays, duty float64, workloadName string) ([]AgePoint, error) {
	if epochs <= 0 {
		return nil, fmt.Errorf("core: age sweep epochs = %d", epochs)
	}
	if epochDays <= 0 || duty <= 0 || duty > 1 {
		return nil, fmt.Errorf("core: age sweep epochDays = %v, duty = %v", epochDays, duty)
	}
	spec, err := p.spec(workloadName)
	if err != nil {
		return nil, err
	}
	cells, err := gridMap(p, len(schemes), func(p RunParams, i int) ([]AgePoint, error) {
		return ageSweepScheme(p, schemes[i], spec, epochs, epochDays, duty)
	})
	if err != nil {
		return nil, err
	}
	var out []AgePoint
	for _, c := range cells {
		out = append(out, c...)
	}
	return out, nil
}

// ageSweepScheme ages one scheme through every epoch.
func ageSweepScheme(p RunParams, scheme ssd.Scheme, spec trace.Spec, epochs int, epochDays, duty float64) ([]AgePoint, error) {
	geo := p.BuildConfig(scheme, 0).Geometry
	nBlocks := geo.TotalBlocks()
	reads := make([]int64, nBlocks)  // residual disturb, carried across epochs
	erases := make([]int64, nBlocks) // accumulated wear, carried across epochs
	var refreshCarry float64         // fractional cold-region refresh periods
	pts := make([]AgePoint, 0, epochs)

	for e := 0; e < epochs; e++ {
		w, err := trace.NewGenerator(spec, p.Seed)
		if err != nil {
			return nil, err
		}
		// Base wear 0: the drive starts fresh and all aging flows
		// through the seeded per-block erase counters.
		cfg := p.BuildConfig(scheme, 0)
		var st ssd.BlockCounters
		m, err := p.record(cfg, obs.Manifest{Workload: spec.Name, Requests: p.Requests}, func(cfg ssd.Config) (*ssd.Metrics, error) {
			dev, err := ssd.New(cfg, w)
			if err != nil {
				return nil, err
			}
			if err := dev.SeedBlockState(reads, erases); err != nil {
				return nil, err
			}
			m, err := dev.Run(p.Requests)
			st = dev.BlockState()
			return m, err
		})
		if err != nil {
			return nil, err
		}

		// Extrapolate the observed window across the epoch: the window
		// saturates the device, so a month at that rate is scaled by
		// the duty factor. Gross senses (never reset by erases) are the
		// honest rate; the net counters reset on every reclaim.
		scale := epochDays * 86400 * duty / m.Makespan.Seconds()
		if scale < 1 {
			scale = 1
		}
		thr := cfg.ReadReclaimThreshold
		var reclaims int64
		gcScaled := make([]int64, nBlocks)
		for b := 0; b < nBlocks; b++ {
			senses := int64(float64(st.Senses[b]) * scale)
			// The window's GC wear, reclaim erases excluded: reclaim
			// wear is re-derived below from the gross sense rate, so
			// scaling the in-window reclaim erases too would count
			// them twice (and at ~1e6x, fatally).
			gcScaled[b] = int64(float64(st.Erases[b]-erases[b]-st.ReclaimErases[b]) * scale)
			total := reads[b] + senses
			if thr > 0 {
				// Analytic reclaim: each threshold crossing migrates
				// and erases the block; the remainder is the residual
				// disturb the next epoch starts from.
				reclaims += total / thr
				erases[b] += total / thr
				reads[b] = total % thr
			} else {
				reads[b] = total
			}
		}
		// A month of dynamic wear leveling spreads GC wear across each
		// plane's write region — the short window can't show that, so
		// the fast-forward levels it: the plane's scaled GC erases are
		// distributed evenly over its write-region blocks (remainder to
		// the lowest indices, deterministically).
		wb := geo.BlocksPerPlane / 2 // FTL write-region base
		for base := 0; base < nBlocks; base += geo.BlocksPerPlane {
			lo, hi := base+wb, base+geo.BlocksPerPlane
			var tot int64
			for b := lo; b < hi; b++ {
				tot += gcScaled[b]
			}
			per, rem := tot/int64(hi-lo), tot%int64(hi-lo)
			for b := lo; b < hi; b++ {
				erases[b] += per
				if int64(b-lo) < rem {
					erases[b]++
				}
			}
		}

		// The background refresh job (footnote 3) rewrites the cold
		// pre-fill region once per MaxAgeDays, burning one erase per
		// cold block per period; fractional periods carry over.
		refreshCarry += epochDays / spec.MaxAgeDays
		if whole := int64(refreshCarry); whole > 0 {
			refreshCarry -= float64(whole)
			for b := 0; b < nBlocks; b++ {
				if geo.BlockAddr(b).Block < geo.BlocksPerPlane/2 {
					erases[b] += whole
				}
			}
		}

		var peSum float64
		for b := 0; b < nBlocks; b++ {
			peSum += float64(cfg.PECycles) + float64(erases[b])
		}
		pts = append(pts, AgePoint{
			Scheme:       scheme,
			AgeDays:      float64(e+1) * epochDays,
			MBps:         m.Bandwidth(),
			MediaErrRate: m.MediaErrorRate(),
			RetryRate:    m.RetryRate(),
			Reclaims:     reclaims,
			AvgPE:        peSum / float64(nBlocks),
		})
	}
	return pts, nil
}

// FormatAgeSweep renders the sweep as a per-scheme table.
func FormatAgeSweep(points []AgePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %8s %8s %10s %8s %10s %8s\n",
		"scheme", "age", "MB/s", "media-err", "retry", "reclaims", "avg P/E")
	var last ssd.Scheme = -1
	for _, pt := range points {
		if pt.Scheme != last && last != -1 {
			fmt.Fprintln(&b)
		}
		last = pt.Scheme
		fmt.Fprintf(&b, "%-8s %7.0fd %8.0f %9.3f%% %7.2f%% %10d %8.0f\n",
			pt.Scheme, pt.AgeDays, pt.MBps, 100*pt.MediaErrRate,
			100*pt.RetryRate, pt.Reclaims, pt.AvgPE)
	}
	return b.String()
}
