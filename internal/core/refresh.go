package core

import (
	"fmt"
	"strings"

	"repro/internal/ssd"
	"repro/internal/trace"
)

// RefreshPoint is one refresh-horizon configuration: how the period
// of the background data refresh (footnote 3 of the paper: "Modern
// SSDs typically refresh stored data periodically") trades read
// performance against refresh write traffic.
type RefreshPoint struct {
	// HorizonDays is the refresh period: cold data is at most this
	// old.
	HorizonDays float64
	// MBps is the achieved bandwidth for the scheme under test.
	MBps float64
	// RetryRate is the fraction of page reads needing a retry.
	RetryRate float64
	// RefreshTaxMBps is the background write bandwidth the refresh
	// itself costs: the used capacity rewritten once per period.
	RefreshTaxMBps float64
	// CyclesPerYear is the P/E wear the refresh policy itself burns
	// on cold data (365/horizon) — the real cost of short horizons.
	CyclesPerYear float64
}

// AblateRefreshHorizon sweeps the refresh period for a scheme at the
// given wear. Short periods suppress retries but burn write bandwidth
// (and P/E cycles); long periods push cold data deep into the
// retry regime. The paper's 1-month choice sits between.
func AblateRefreshHorizon(p RunParams, scheme ssd.Scheme, pe int) ([]RefreshPoint, error) {
	spec, err := p.spec("Ali124")
	if err != nil {
		return nil, err
	}
	usedBytes := float64(spec.FootprintPages) * 16 * 1024
	horizons := []float64{7, 14, 30, 60, 90}
	return gridMap(p, len(horizons), func(p RunParams, i int) (RefreshPoint, error) {
		horizon := horizons[i]
		s := spec
		s.MaxAgeDays = horizon
		w, err := trace.NewGenerator(s, p.Seed)
		if err != nil {
			return RefreshPoint{}, err
		}
		m, err := p.closedLoop(p.BuildConfig(scheme, pe), spec.Name, w, p.Requests)
		if err != nil {
			return RefreshPoint{}, err
		}
		return RefreshPoint{
			HorizonDays:    horizon,
			MBps:           m.Bandwidth(),
			RetryRate:      m.RetryRate(),
			RefreshTaxMBps: usedBytes / 1e6 / (horizon * 86400),
			CyclesPerYear:  365 / horizon,
		}, nil
	})
}

// FormatRefresh renders the refresh sweep.
func FormatRefresh(points []RefreshPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%9s %9s %8s %14s %12s\n", "horizon", "MB/s", "retry", "refresh tax", "P/E per yr")
	for _, pt := range points {
		fmt.Fprintf(&b, "%8.0fd %9.0f %7.1f%% %9.3f MB/s %12.1f\n",
			pt.HorizonDays, pt.MBps, 100*pt.RetryRate, pt.RefreshTaxMBps, pt.CyclesPerYear)
	}
	return b.String()
}
