package nand

import (
	"math"
	"testing"
	"testing/quick"
)

// needsRetry reports whether a page read at the given condition and
// VREF mode exceeds the ECC correction capability.
func needsRetry(m *Model, blockID int, pt PageType, pe int, retentionDays float64, reads int64, mode VrefMode) bool {
	return m.PageRBER(blockID, pt, pe, retentionDays, reads, mode) > ECCCapabilityRBER
}

func TestRBERMonotonicInRetention(t *testing.T) {
	m := NewDefaultModel(1)
	for _, pt := range []PageType{LSB, CSB, MSB} {
		prev := -1.0
		for d := 0.0; d <= 31; d += 1 {
			r := m.PageRBER(0, pt, 1000, d, 0, DefaultVref)
			if r < prev {
				t.Fatalf("%v: RBER decreased with retention at day %v", pt, d)
			}
			prev = r
		}
	}
}

func TestRBERMonotonicInPE(t *testing.T) {
	m := NewDefaultModel(1)
	prev := -1.0
	for _, pe := range []int{0, 100, 200, 300, 500, 1000, 2000, 3000} {
		r := m.PageRBER(0, CSB, pe, 14, 0, DefaultVref)
		if r < prev {
			t.Fatalf("RBER decreased with P/E at %d", pe)
		}
		prev = r
	}
}

func TestFreshPagesDecodeEasily(t *testing.T) {
	m := NewDefaultModel(1)
	for _, pt := range []PageType{LSB, CSB, MSB} {
		r := m.PageRBER(0, pt, 0, 0, 0, DefaultVref)
		if r > ECCCapabilityRBER/10 {
			t.Fatalf("%v fresh RBER = %v, implausibly high", pt, r)
		}
	}
}

func TestFig4RetentionFrontier(t *testing.T) {
	// The paper's characterization: read retry becomes possible after
	// ~17 days at 0 P/E, ~14 at 200, ~10 at 500, ~8 at 1000 (earliest
	// onset over the tested population). Check the onset (fastest of
	// many blocks/page types) lands near those frontiers.
	m := NewDefaultModel(1)
	onset := func(pe int) float64 {
		min := math.Inf(1)
		for b := 0; b < 200; b++ {
			for _, pt := range []PageType{LSB, CSB, MSB} {
				if d := m.RetentionUntilRetry(b, pt, pe, 60); d < min {
					min = d
				}
			}
		}
		return min
	}
	checks := []struct {
		pe   int
		want float64 // paper's onset, days
	}{
		{0, 17}, {200, 14}, {500, 10}, {1000, 8},
	}
	var prev float64 = math.Inf(1)
	for _, c := range checks {
		got := onset(c.pe)
		if got > prev {
			t.Fatalf("onset not monotonic in P/E: %v days at %d P/E after %v", got, c.pe, prev)
		}
		prev = got
		// The shape must hold within a factor-of-two band.
		if got < c.want/2 || got > c.want*2 {
			t.Errorf("pe=%d: retry onset %.1f days, paper ~%v", c.pe, got, c.want)
		}
	}
}

func TestRetryNeededEvenAtZeroPE(t *testing.T) {
	// §III-A: "the read-retry procedure is required even in a fresh
	// wear-out condition" for month-scale retention.
	m := NewDefaultModel(1)
	retries := 0
	for b := 0; b < 100; b++ {
		if needsRetry(m, b, CSB, 0, 30, 0, DefaultVref) {
			retries++
		}
	}
	if retries == 0 {
		t.Fatal("no page needs retry at 0 P/E after 30 days; paper says most do")
	}
}

func TestOptimalVrefRescuesPages(t *testing.T) {
	// A page unreadable at the default VREF must be comfortably
	// decodable at the near-optimal VREF (the premise of every retry
	// scheme, and of tECC=1us after adjustment).
	m := NewDefaultModel(1)
	for _, pe := range []int{0, 1000, 2000} {
		for _, pt := range []PageType{LSB, CSB, MSB} {
			for d := 1.0; d <= 31; d += 3 {
				if !needsRetry(m, 0, pt, pe, d, 0, DefaultVref) {
					continue
				}
				opt := m.PageRBER(0, pt, pe, d, 0, OptimalVref)
				if opt > ECCCapabilityRBER {
					t.Fatalf("pe=%d %v day=%v: optimal-VREF RBER %v still above capability", pe, pt, d, opt)
				}
			}
		}
	}
}

func TestVrefModeOrdering(t *testing.T) {
	// Optimal <= Tracked <= Default for any stressed condition.
	m := NewDefaultModel(1)
	f := func(peRaw uint8, dRaw uint8, blockRaw uint16) bool {
		pe := int(peRaw) * 12 // 0..3060
		d := float64(dRaw%32) + 1
		b := int(blockRaw)
		opt := m.PageRBER(b, CSB, pe, d, 0, OptimalVref)
		trk := m.PageRBER(b, CSB, pe, d, 0, TrackedVref)
		def := m.PageRBER(b, CSB, pe, d, 0, DefaultVref)
		return opt <= trk*(1+1e-9) && trk <= def*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTrackedVrefReducesRetryFrequency(t *testing.T) {
	// SWR+'s tracking must push the retry onset to longer retention.
	m := NewDefaultModel(1)
	const pe = 2000
	defRetries, trkRetries := 0, 0
	for b := 0; b < 100; b++ {
		if needsRetry(m, b, CSB, pe, 10, 0, DefaultVref) {
			defRetries++
		}
		if needsRetry(m, b, CSB, pe, 10, 0, TrackedVref) {
			trkRetries++
		}
	}
	if trkRetries >= defRetries {
		t.Fatalf("tracking did not reduce retries: %d vs %d", trkRetries, defRetries)
	}
}

func TestBlockVariationIsDeterministicAndSpread(t *testing.T) {
	m := NewDefaultModel(7)
	m2 := NewDefaultModel(7)
	var lo, hi float64 = math.Inf(1), 0
	for b := 0; b < 1000; b++ {
		v := m.BlockVariation(b)
		if v != m2.BlockVariation(b) {
			t.Fatal("block variation not deterministic")
		}
		if v <= 0 {
			t.Fatal("non-positive variation")
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi/lo < 1.2 {
		t.Fatalf("variation spread too tight: [%v, %v]", lo, hi)
	}
	mOther := NewDefaultModel(8)
	if mOther.BlockVariation(3) == m.BlockVariation(3) {
		t.Fatal("different seeds produced identical variation")
	}
}

func TestChunkSimilarityFig12(t *testing.T) {
	// Fig. 12: (RBERmax-RBERmin)/RBERmin among chunks stays small —
	// up to ~4.5% for 4-KiB chunks and ~13.5% for 1-KiB chunks — and
	// grows as chunks shrink.
	m := NewDefaultModel(1)
	maxSpread := func(chunks int) float64 {
		worst := 0.0
		for page := uint64(0); page < 3000; page++ {
			base := 0.004
			lo, hi := math.Inf(1), 0.0
			for c := 0; c < chunks; c++ {
				r := m.ChunkRBER(base, page, c, chunks)
				lo = math.Min(lo, r)
				hi = math.Max(hi, r)
			}
			if s := (hi - lo) / lo; s > worst {
				worst = s
			}
		}
		return worst
	}
	s4 := maxSpread(4)   // 4-KiB chunks of a 16-KiB page
	s8 := maxSpread(8)   // 2-KiB
	s16 := maxSpread(16) // 1-KiB
	if !(s4 < s8 && s8 < s16) {
		t.Fatalf("spread not increasing as chunks shrink: %v %v %v", s4, s8, s16)
	}
	if s4 > 0.10 {
		t.Fatalf("4-KiB chunk spread %v too large (paper: <=4.5%%)", s4)
	}
	if s16 > 0.30 {
		t.Fatalf("1-KiB chunk spread %v too large (paper: <=13.5%%)", s16)
	}
}

func TestChunkRBERDeterministic(t *testing.T) {
	m := NewDefaultModel(1)
	a := m.ChunkRBER(0.005, 42, 2, 4)
	b := m.ChunkRBER(0.005, 42, 2, 4)
	if a != b {
		t.Fatal("chunk RBER not deterministic")
	}
	if m.ChunkRBER(0.005, 42, 2, 1) != 0.005 {
		t.Fatal("single chunk must equal page RBER")
	}
}

func TestRetentionUntilRetryBisection(t *testing.T) {
	m := NewDefaultModel(1)
	d := m.RetentionUntilRetry(0, MSB, 1000, 60)
	if d <= 0 || d >= 60 {
		t.Fatalf("crossing day = %v, expected interior", d)
	}
	// Just before: below capability; just after: above.
	if m.PageRBER(0, MSB, 1000, d-0.01, 0, DefaultVref) > ECCCapabilityRBER {
		t.Fatal("RBER above capability before the reported crossing")
	}
	if m.PageRBER(0, MSB, 1000, d+0.01, 0, DefaultVref) <= ECCCapabilityRBER {
		t.Fatal("RBER below capability after the reported crossing")
	}
}

func TestReadDisturbAccumulates(t *testing.T) {
	m := NewDefaultModel(1)
	r0 := m.PageRBER(0, CSB, 1000, 5, 0, DefaultVref)
	r1 := m.PageRBER(0, CSB, 1000, 5, 1_000_000, DefaultVref)
	if r1 <= r0 {
		t.Fatal("read disturb did not increase RBER")
	}
}

func TestRBERCappedAtHalf(t *testing.T) {
	m := NewDefaultModel(1)
	if r := m.PageRBER(0, CSB, 100000, 10000, 1<<40, DefaultVref); r > 0.5 {
		t.Fatalf("RBER = %v > 0.5", r)
	}
}

// A page's condition is evaluated once and its RBER under each VREF
// mode on demand (Condition, ConditionRBER — the SSD keeps the
// condition and evaluates the retry mode only for a page that needs
// it); each value must be bit-identical to the matching single-mode
// PageRBER, across page types, wear, retention and disturb.
func TestPageRBERPairMatchesPageRBER(t *testing.T) {
	m := NewDefaultModel(11)
	modes := []VrefMode{DefaultVref, OptimalVref, TrackedVref}
	for bid := 0; bid < 40; bid++ {
		v := m.BlockVariation(bid)
		for _, pt := range []PageType{LSB, CSB, MSB} {
			for _, pe := range []int{0, 1000, 3000} {
				for _, days := range []float64{-1, 0, 3.5, 90, 730} {
					for _, reads := range []int64{0, 1, 50_000} {
						c := m.Condition(v, pe, days, reads)
						for _, mode := range modes {
							if x := m.ConditionRBER(pt, c, mode); x != m.PageRBER(bid, pt, pe, days, reads, mode) {
								t.Fatalf("block %d %v pe=%d days=%v reads=%d mode %v: %v differs from PageRBER", bid, pt, pe, days, reads, mode, x)
							}
						}
					}
				}
			}
		}
	}
}

// TestPageRBERPairZeroAlloc is the runtime half of the //riflint:hotpath
// guard on Condition, ConditionBounds and ConditionRBER, which the SSD
// evaluates for every page read.
func TestPageRBERPairZeroAlloc(t *testing.T) {
	m := NewDefaultModel(3)
	v := m.BlockVariation(7)
	var sink float64
	if allocs := testing.AllocsPerRun(1000, func() {
		c := m.Condition(v, 2000, 30, 1000)
		lo, hi, _ := m.ConditionBounds(CSB, c, DefaultVref)
		sink += lo + hi + m.ConditionRBER(CSB, c, DefaultVref) + m.ConditionRBER(CSB, c, OptimalVref)
	}); allocs != 0 {
		t.Fatalf("Condition, ConditionBounds and ConditionRBER allocate %.1f times per page", allocs)
	}
	_ = sink
}
