package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/trace"
)

// PaperPECycles are the three wear states the paper evaluates.
var PaperPECycles = []int{0, 1000, 2000}

// BandwidthCell is one (scheme, workload, P/E) bandwidth measurement.
type BandwidthCell struct {
	Scheme   ssd.Scheme
	Workload string
	PECycles int
	MBps     float64
}

// BandwidthTable is the Fig. 6 / Fig. 17 result grid.
type BandwidthTable struct {
	Cells []BandwidthCell
}

// Get finds a cell (0 when absent).
func (t *BandwidthTable) Get(s ssd.Scheme, workload string, pe int) float64 {
	for _, c := range t.Cells {
		if c.Scheme == s && c.Workload == workload && c.PECycles == pe {
			return c.MBps
		}
	}
	return 0
}

// Ratio reports scheme s's bandwidth relative to base under the same
// (workload, P/E). A missing or zero baseline cell is reported as an
// error rather than silently producing +Inf or NaN.
func (t *BandwidthTable) Ratio(s, base ssd.Scheme, workload string, pe int) (float64, error) {
	ref := t.Get(base, workload, pe)
	if ref <= 0 {
		return 0, fmt.Errorf("core: no %v baseline bandwidth for workload %q at %d P/E cycles", base, workload, pe)
	}
	return t.Get(s, workload, pe) / ref, nil
}

// NormalizedTo reports every cell's bandwidth relative to the given
// baseline scheme under the same (workload, P/E), as Fig. 17 is
// normalized to SENC.
func (t *BandwidthTable) NormalizedTo(base ssd.Scheme) map[ssd.Scheme]map[int][]float64 {
	out := map[ssd.Scheme]map[int][]float64{}
	for _, c := range t.Cells {
		b := t.Get(base, c.Workload, c.PECycles)
		if b <= 0 {
			continue
		}
		if out[c.Scheme] == nil {
			out[c.Scheme] = map[int][]float64{}
		}
		out[c.Scheme][c.PECycles] = append(out[c.Scheme][c.PECycles], c.MBps/b)
	}
	return out
}

// GeoMeanGain reports the geometric-mean bandwidth of scheme s over
// base at the given P/E across workloads, minus one (e.g. the paper's
// "+72.1% over SENC at 2K").
func (t *BandwidthTable) GeoMeanGain(s, base ssd.Scheme, pe int) float64 {
	norm := t.NormalizedTo(base)
	var ratios []float64
	for _, r := range norm[s][pe] {
		if r > 0 { // a zero-bandwidth cell would poison the geomean
			ratios = append(ratios, r)
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	return stats.GeoMean(ratios) - 1
}

// Format renders the table in the paper's layout: one block per P/E
// count, workloads as columns, normalized to the base scheme.
func (t *BandwidthTable) Format(base ssd.Scheme, schemes []ssd.Scheme, workloads []string) string {
	var b strings.Builder
	pes := map[int]bool{}
	for _, c := range t.Cells {
		pes[c.PECycles] = true
	}
	var peList []int
	for pe := range pes {
		peList = append(peList, pe)
	}
	sort.Ints(peList)
	for _, pe := range peList {
		fmt.Fprintf(&b, "== %dK P/E cycles (bandwidth normalized to %v) ==\n", pe/1000, base)
		fmt.Fprintf(&b, "%-8s", "scheme")
		for _, w := range workloads {
			fmt.Fprintf(&b, "%9s", w)
		}
		fmt.Fprintf(&b, "%9s\n", "geomean")
		for _, s := range schemes {
			fmt.Fprintf(&b, "%-8s", s)
			var ratios []float64
			for _, w := range workloads {
				r, err := t.Ratio(s, base, w, pe)
				if err != nil || r <= 0 {
					// Missing baseline or empty cell: mark it rather
					// than feeding 0/Inf into the geomean.
					fmt.Fprintf(&b, "%9s", "n/a")
					continue
				}
				ratios = append(ratios, r)
				fmt.Fprintf(&b, "%9.2f", r)
			}
			if len(ratios) == len(workloads) {
				fmt.Fprintf(&b, "%9.2f\n", stats.GeoMean(ratios))
			} else {
				fmt.Fprintf(&b, "%9s\n", "n/a")
			}
		}
	}
	return b.String()
}

// CompareSchemes runs the (schemes x workloads x peCycles) grid — the
// engine behind Figs. 6 and 17 — sharded across p.Workers workers.
// Each cell lands in its pre-assigned slot, so the table is identical
// whatever the scheduling.
func CompareSchemes(p RunParams, schemes []ssd.Scheme, workloads []string, peCycles []int) (*BandwidthTable, error) {
	type cellKey struct {
		s  ssd.Scheme
		w  string
		pe int
	}
	var keys []cellKey
	for _, pe := range peCycles {
		for _, w := range workloads {
			for _, s := range schemes {
				keys = append(keys, cellKey{s, w, pe})
			}
		}
	}
	cells, err := gridMap(p, len(keys), func(p RunParams, i int) (BandwidthCell, error) {
		k := keys[i]
		m, err := RunOne(p, k.s, k.w, k.pe)
		if err != nil {
			return BandwidthCell{}, err
		}
		return BandwidthCell{Scheme: k.s, Workload: k.w, PECycles: k.pe, MBps: m.Bandwidth()}, nil
	})
	if err != nil {
		return nil, err
	}
	return &BandwidthTable{Cells: cells}, nil
}

// Fig6 compares SSDone against SSDzero on the four workloads of the
// motivation study.
func Fig6(p RunParams) (*BandwidthTable, error) {
	return CompareSchemes(p,
		[]ssd.Scheme{ssd.Zero, ssd.One},
		[]string{"Ali121", "Ali124", "Sys0", "Sys1"},
		PaperPECycles)
}

// Fig17 runs the full evaluation grid: five retry schemes plus the
// two reference points over all eight workloads and three P/E counts.
func Fig17(p RunParams) (*BandwidthTable, error) {
	return CompareSchemes(p, ssd.AllSchemes(), trace.Names(), PaperPECycles)
}

// UsageCell is one channel-usage breakdown (Fig. 18).
type UsageCell struct {
	Scheme   ssd.Scheme
	Workload string
	PECycles int
	Idle     float64
	Cor      float64
	Uncor    float64
	ECCWait  float64
}

// Fig18 measures the channel usage breakdown for the two most
// read-intensive workloads across schemes and P/E counts.
func Fig18(p RunParams, schemes []ssd.Scheme) ([]UsageCell, error) {
	type cellKey struct {
		w  string
		pe int
		s  ssd.Scheme
	}
	var keys []cellKey
	for _, w := range []string{"Ali121", "Ali124"} {
		for _, pe := range PaperPECycles {
			for _, s := range schemes {
				keys = append(keys, cellKey{w, pe, s})
			}
		}
	}
	return gridMap(p, len(keys), func(p RunParams, i int) (UsageCell, error) {
		k := keys[i]
		m, err := RunOne(p, k.s, k.w, k.pe)
		if err != nil {
			return UsageCell{}, err
		}
		idle, cor, uncor, wait := m.Channels.Fractions()
		return UsageCell{
			Scheme: k.s, Workload: k.w, PECycles: k.pe,
			Idle: idle, Cor: cor, Uncor: uncor, ECCWait: wait,
		}, nil
	})
}

// FormatUsage renders Fig. 18-style rows.
func FormatUsage(cells []UsageCell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-8s %5s %6s %6s %6s %8s\n",
		"trace", "scheme", "P/E", "IDLE", "COR", "UNCOR", "ECCWAIT")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-8s %-8s %5d %6.2f %6.2f %6.2f %8.2f\n",
			c.Workload, c.Scheme, c.PECycles, c.Idle, c.Cor, c.Uncor, c.ECCWait)
	}
	return b.String()
}

// LatencyCurve is one scheme's read-latency distribution (Fig. 19).
type LatencyCurve struct {
	Scheme   ssd.Scheme
	PECycles int
	// CDF maps latency (us) to cumulative fraction.
	CDF []stats.CDFPoint
	// Percentiles of interest, in us.
	P50, P99, P999, P9999 float64
}

// Fig19 collects read-latency CDFs for Ali124 across schemes and P/E
// counts.
func Fig19(p RunParams, schemes []ssd.Scheme) ([]LatencyCurve, error) {
	type cellKey struct {
		pe int
		s  ssd.Scheme
	}
	var keys []cellKey
	for _, pe := range PaperPECycles {
		for _, s := range schemes {
			keys = append(keys, cellKey{pe, s})
		}
	}
	return gridMap(p, len(keys), func(p RunParams, i int) (LatencyCurve, error) {
		k := keys[i]
		m, err := RunOne(p, k.s, "Ali124", k.pe)
		if err != nil {
			return LatencyCurve{}, err
		}
		return LatencyCurve{
			Scheme:   k.s,
			PECycles: k.pe,
			CDF:      m.ReadLatencies.CDF(64),
			P50:      m.ReadLatencies.Percentile(50),
			P99:      m.ReadLatencies.Percentile(99),
			P999:     m.ReadLatencies.Percentile(99.9),
			P9999:    m.ReadLatencies.Percentile(99.99),
		}, nil
	})
}

// FormatLatency renders the tail-latency table.
func FormatLatency(curves []LatencyCurve) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %5s %9s %9s %9s %9s\n", "scheme", "P/E", "p50us", "p99us", "p99.9us", "p99.99us")
	for _, c := range curves {
		fmt.Fprintf(&b, "%-8s %5d %9.0f %9.0f %9.0f %9.0f\n",
			c.Scheme, c.PECycles, c.P50, c.P99, c.P999, c.P9999)
	}
	return b.String()
}
