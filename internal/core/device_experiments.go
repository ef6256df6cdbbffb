package core

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/nand"
)

// RetentionCell is one (P/E, day) cell of the Fig. 4 heat map: the
// proportion of pages whose RBER first exceeds the ECC capability on
// that retention day.
type RetentionCell struct {
	PECycles   int
	Day        int
	Proportion float64
}

// The characterization rows' fixed populations: blocks per P/E count
// and the retention horizon of Fig. 4, and pages per condition of
// Fig. 12.
const (
	fig4Blocks  = 300
	fig4MaxDays = 40
	fig12Pages  = 2000
)

// Fig4 reproduces the retention-until-retry distributions: for each
// P/E count (nil: the paper's six) it bins the first-crossing
// retention day, up to a 40-day horizon, over blocks blocks and all
// three page types of a model seeded by seed.
func Fig4(seed uint64, blocks int, peCycles []int) []RetentionCell {
	if len(peCycles) == 0 {
		peCycles = []int{0, 100, 200, 300, 500, 1000}
	}
	m := nand.NewDefaultModel(seed)
	var out []RetentionCell
	types := []nand.PageType{nand.LSB, nand.CSB, nand.MSB}
	for _, pe := range peCycles {
		counts := make([]int, fig4MaxDays+2) // last bin: never within horizon
		total := 0
		for b := 0; b < blocks; b++ {
			for _, pt := range types {
				d := m.RetentionUntilRetry(b, pt, pe, fig4MaxDays)
				bin := int(math.Ceil(d))
				if d >= fig4MaxDays {
					bin = fig4MaxDays + 1
				}
				counts[bin]++
				total++
			}
		}
		for day := 0; day <= fig4MaxDays+1; day++ {
			if counts[day] == 0 {
				continue
			}
			out = append(out, RetentionCell{
				PECycles:   pe,
				Day:        day,
				Proportion: float64(counts[day]) / float64(total),
			})
		}
	}
	return out
}

// OnsetDay reports the earliest crossing day for a P/E count in a
// Fig. 4 result (the paper's 17/14/10/8-day frontier).
func OnsetDay(cells []RetentionCell, pe int) int {
	onset := -1
	for _, c := range cells {
		if c.PECycles != pe {
			continue
		}
		if onset < 0 || c.Day < onset {
			onset = c.Day
		}
	}
	return onset
}

// FormatFig4 renders the distribution as one row per P/E count.
func FormatFig4(cells []RetentionCell) string {
	byPE := map[int]map[int]float64{}
	var pes []int
	for _, c := range cells {
		if byPE[c.PECycles] == nil {
			byPE[c.PECycles] = map[int]float64{}
			pes = append(pes, c.PECycles)
		}
		byPE[c.PECycles][c.Day] = c.Proportion
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%6s | proportion of pages crossing the ECC capability per retention day\n", "P/E")
	for _, pe := range pes {
		fmt.Fprintf(&b, "%6d |", pe)
		for d := 0; d <= fig4MaxDays; d++ {
			v := byPE[pe][d]
			switch {
			case v == 0:
				b.WriteByte('.')
			case v < 0.02:
				b.WriteByte('-')
			case v < 0.05:
				b.WriteByte('+')
			default:
				b.WriteByte('#')
			}
		}
		fmt.Fprintf(&b, "  onset=%dd\n", OnsetDay(cells, pe))
	}
	return b.String()
}

// SimilarityPoint is one Fig. 12 cell: the worst chunk RBER spread
// observed over a page population for one chunk size and condition.
type SimilarityPoint struct {
	ChunkKiB      int
	PECycles      int
	RetentionDays float64
	// MaxSpread is max over pages of (RBERmax-RBERmin)/RBERmin among
	// the page's chunks.
	MaxSpread float64
}

// Fig12 reproduces the intra-page chunk RBER similarity study for
// 4/2/1-KiB chunks of a 16-KiB page under increasing stress, over
// pages pages per condition.
func Fig12(seed uint64, pages int) []SimilarityPoint {
	m := nand.NewDefaultModel(seed)
	var out []SimilarityPoint
	for _, chunkKiB := range []int{4, 2, 1} {
		chunks := 16 / chunkKiB
		for _, pe := range []int{0, 1000, 2000} {
			for _, days := range []float64{0, 1, 3, 7, 14, 21, 28} {
				worst := 0.0
				for pg := 0; pg < pages; pg++ {
					base := m.PageRBER(pg%64, nand.CSB, pe, days, 0, nand.DefaultVref)
					if base <= 0 {
						continue
					}
					lo, hi := math.Inf(1), 0.0
					for c := 0; c < chunks; c++ {
						r := m.ChunkRBER(base, uint64(pg), c, chunks)
						lo = math.Min(lo, r)
						hi = math.Max(hi, r)
					}
					if lo > 0 {
						if s := (hi - lo) / lo; s > worst {
							worst = s
						}
					}
				}
				out = append(out, SimilarityPoint{
					ChunkKiB: chunkKiB, PECycles: pe, RetentionDays: days, MaxSpread: worst,
				})
			}
		}
	}
	return out
}

// MaxSpreadFor reports the worst spread for a chunk size across all
// conditions (the paper's 4.5% @4 KiB, 13.5% @1 KiB headline).
func MaxSpreadFor(points []SimilarityPoint, chunkKiB int) float64 {
	worst := 0.0
	for _, p := range points {
		if p.ChunkKiB == chunkKiB && p.MaxSpread > worst {
			worst = p.MaxSpread
		}
	}
	return worst
}

// FormatFig12 renders the similarity study.
func FormatFig12(points []SimilarityPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %6s %10s %12s\n", "chunk", "P/E", "days", "max spread")
	for _, p := range points {
		fmt.Fprintf(&b, "%5dK %6d %10.0f %11.1f%%\n",
			p.ChunkKiB, p.PECycles, p.RetentionDays, 100*p.MaxSpread)
	}
	return b.String()
}
