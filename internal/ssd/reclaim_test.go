package ssd

import (
	"testing"

	"repro/internal/trace"
)

// hammerWrites overwrites two lpns on one plane forever, the fastest
// deterministic way to force garbage collection through the SSD write
// path.
type hammerWrites struct {
	i      int
	stride int64 // total planes: lpns 0 and stride share plane 0
}

func (h *hammerWrites) Next() trace.Request {
	h.i++
	return trace.Request{Op: trace.Write, LPN: int64(h.i%2) * h.stride, Pages: 1}
}

func (*hammerWrites) InitialAgeDays(int64) float64 { return 0 }

// prefillBlockID finds a block in the cold pre-fill region, where
// reclaim refreshes in place instead of going through the FTL.
func prefillBlockID(t *testing.T, s *SSD) int {
	t.Helper()
	for b := 0; b < s.cfg.Geometry.TotalBlocks(); b++ {
		if s.cfg.Geometry.BlockAddr(b).Block < s.ftl.WriteBase() {
			return b
		}
	}
	t.Fatal("no pre-fill block found")
	return -1
}

// TestReclaimThresholdBoundary pins the trigger semantics: the sense
// that brings the net counter to exactly the threshold fires the
// reclaim, which erases the block and re-arms the counter at zero —
// while the gross sense counter keeps the full history.
func TestReclaimThresholdBoundary(t *testing.T) {
	cfg := smallConfig(RiF, 1000)
	cfg.ReadReclaimThreshold = 10
	s, err := New(cfg, allocStubWorkload{})
	if err != nil {
		t.Fatal(err)
	}
	bid := prefillBlockID(t, s)
	for i := 0; i < 9; i++ {
		s.noteSense(bid)
	}
	if s.m.ReadReclaims != 0 {
		t.Fatalf("reclaim fired %d senses below threshold", s.m.ReadReclaims)
	}
	if s.ftl.blocks.get(bid).reads != 9 {
		t.Fatalf("net counter = %d after 9 senses", s.ftl.blocks.get(bid).reads)
	}
	s.noteSense(bid) // the threshold-crossing sense
	if s.m.ReadReclaims != 1 {
		t.Fatalf("reclaims = %d, want exactly 1 at the boundary", s.m.ReadReclaims)
	}
	if s.ftl.blocks.get(bid).reads != 0 {
		t.Fatalf("net counter = %d after reclaim, want 0", s.ftl.blocks.get(bid).reads)
	}
	if s.ftl.blocks.get(bid).erases != 1 || s.ftl.blocks.get(bid).reclaimErases != 1 {
		t.Fatalf("erases = %d, reclaim erases = %d, want 1/1",
			s.ftl.blocks.get(bid).erases, s.ftl.blocks.get(bid).reclaimErases)
	}
	if !s.ftl.blocks.peek(bid).refreshedInPlace() {
		t.Fatal("pre-fill block not marked refreshed in place")
	}
	if s.ftl.blocks.get(bid).senses != 10 {
		t.Fatalf("gross senses = %d, want 10 (gross survives the erase)", s.ftl.blocks.get(bid).senses)
	}
	if s.m.ReclaimPagesMigrated != int64(cfg.Geometry.PagesPerBlock) {
		t.Fatalf("migrated %d pages, want the whole block (%d)",
			s.m.ReclaimPagesMigrated, cfg.Geometry.PagesPerBlock)
	}
}

// TestGCEraseClearsDisturbCounter is the regression for the
// counter-reset rule: any erase — here GC victim erases — zeroes the
// block's net disturb counter, while gross senses are never reset.
// Every block is seeded with a sentinel count so a missed reset is
// visible: an untouched block ends at exactly seed + its own senses;
// an erased block must end strictly below that.
func TestGCEraseClearsDisturbCounter(t *testing.T) {
	cfg := smallConfig(RiF, 1000)
	cfg.ReadReclaimThreshold = 0 // isolate GC: no read-reclaim erases
	// Shrink one plane's write region so overwrites exhaust it fast.
	cfg.Geometry.BlocksPerPlane = 64
	cfg.Geometry.PagesPerBlock = 16
	geo := cfg.Geometry
	w := &hammerWrites{stride: int64(geo.Channels * geo.DiesPerChan * geo.PlanesPerDie)}
	s, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	const seedReads = 50
	seed := make([]int64, cfg.Geometry.TotalBlocks())
	for i := range seed {
		seed[i] = seedReads
	}
	if err := s.SeedBlockState(seed, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(1500); err != nil {
		t.Fatal(err)
	}
	st := s.BlockState()
	victims := 0
	for b := range st.Erases {
		if st.Reads[b] > seedReads+st.Senses[b] {
			t.Fatalf("block %d net counter %d exceeds seed+senses %d",
				b, st.Reads[b], seedReads+st.Senses[b])
		}
		if st.Erases[b] > 0 {
			victims++
			if st.Reads[b] >= seedReads+st.Senses[b] {
				t.Fatalf("GC victim block %d kept its disturb counter: reads=%d senses=%d",
					b, st.Reads[b], st.Senses[b])
			}
		}
	}
	if victims == 0 {
		t.Fatal("no GC victims; the regression test needs GC to fire")
	}
}

// TestFTLReclaimBlockMigratesAndFrees exercises the FTL half of
// reclaim directly: valid pages move, the mapping still resolves with
// its original write time, the victim returns to the free list, and
// GC statistics stay untouched (reclaim is not garbage collection).
func TestFTLReclaimBlockMigratesAndFrees(t *testing.T) {
	f := NewFTL(tinyGeo())
	addr, gc, err := f.Write(5, 1000, 0)
	if err != nil || gc.Erases > 0 {
		t.Fatalf("write: %v gc=%v", err, gc)
	}
	work, err := f.ReclaimBlock(addr)
	if err != nil {
		t.Fatal(err)
	}
	if work.Erases != 1 || work.PagesRelocated != 1 {
		t.Fatalf("reclaim work = %+v, want 1 page moved, 1 erase", work)
	}
	got, at, written := f.Lookup(5)
	if !written || at != 1000 {
		t.Fatalf("mapping lost after reclaim: written=%v at=%v", written, at)
	}
	if got.Block == addr.Block {
		t.Fatalf("lpn still maps into the reclaimed block %d", addr.Block)
	}
	if runs, _ := f.GCStats(); runs != 0 {
		t.Fatalf("reclaim polluted GC stats: %d runs", runs)
	}

	// An unwritten write-region block is a silent no-op: nothing to
	// migrate, nothing to erase.
	idle := addr
	for b := f.WriteBase(); b < tinyGeo().BlocksPerPlane; b++ {
		if b != got.Block {
			idle.Block = b
			break
		}
	}
	work, err = f.ReclaimBlock(idle)
	if err != nil || work.Erases > 0 {
		t.Fatalf("unwritten block reclaim = (%+v, %v), want no work and no error", work, err)
	}
}

// TestReclaimCompetesForDieTime runs the same trace with reclaim off
// and with an aggressive threshold: the migrations must show up both
// in the metrics and as die time — the run with reclaims takes
// strictly longer.
func TestReclaimCompetesForDieTime(t *testing.T) {
	runSeeded := func(thr int64) *Metrics {
		cfg := smallConfig(RiF, 1000)
		cfg.ReadReclaimThreshold = thr
		s, err := New(cfg, smallWorkload(t, "Ali124", 1))
		if err != nil {
			t.Fatal(err)
		}
		// Every block sits five senses below the default threshold, so
		// any block read five times during the run reclaims.
		seed := make([]int64, cfg.Geometry.TotalBlocks())
		for i := range seed {
			seed[i] = DefaultConfig(RiF, 1000).ReadReclaimThreshold - 5
		}
		if err := s.SeedBlockState(seed, nil); err != nil {
			t.Fatal(err)
		}
		m, err := s.Run(400)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m0 := runSeeded(0)
	m1 := runSeeded(DefaultConfig(RiF, 1000).ReadReclaimThreshold)
	if m0.ReadReclaims != 0 {
		t.Fatalf("reclaim disabled but counted %d", m0.ReadReclaims)
	}
	if m1.ReadReclaims == 0 || m1.ReclaimPagesMigrated == 0 {
		t.Fatalf("aggressive threshold produced no reclaims: %d/%d",
			m1.ReadReclaims, m1.ReclaimPagesMigrated)
	}
	if m1.Makespan <= m0.Makespan {
		t.Fatalf("reclaim work is free: makespan %v with vs %v without",
			m1.Makespan, m0.Makespan)
	}
}

// TestEverySenseCounted is the satellite-2 regression: gross senses
// must cover every array access. A scheme that never retries senses
// exactly once per page read; retrying schemes (off-chip ladder,
// Sentinel extra reads, RiF's RVS re-reads) must log strictly more.
func TestEverySenseCounted(t *testing.T) {
	sum := func(xs []int64) int64 {
		var s int64
		for _, x := range xs {
			s += x
		}
		return s
	}
	cfg := smallConfig(Zero, 2000)
	s, err := New(cfg, smallWorkload(t, "Ali124", 1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run(300)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(s.BlockState().Senses); got != m.PageReads {
		t.Fatalf("SSDzero senses %d != page reads %d: a sense path is miscounted", got, m.PageReads)
	}

	for _, sc := range []Scheme{One, Sentinel, RiF} {
		s, err := New(smallConfig(sc, 2000), smallWorkload(t, "Ali124", 1))
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Run(300)
		if err != nil {
			t.Fatal(err)
		}
		senses := sum(s.BlockState().Senses)
		if senses <= m.PageReads {
			t.Errorf("%v: %d senses for %d page reads; retries are not being counted", sc, senses, m.PageReads)
		}
		if senses < m.PageReads+m.PagesRetried {
			t.Errorf("%v: %d senses < page reads %d + retried %d; each retry re-senses at least once",
				sc, senses, m.PageReads, m.PagesRetried)
		}
	}
}

// TestDisturbRaisesRetries pins the tentpole bugfix end to end: the
// same trace on the same device retries more when the blocks carry
// accumulated read disturb — before the fix, conditionAt ignored its
// reads input entirely and this test cannot pass.
func TestDisturbRaisesRetries(t *testing.T) {
	cfg := smallConfig(One, 1000)
	cfg.ReadReclaimThreshold = 0 // keep the disturb seed in place
	fresh := run(t, cfg, smallWorkload(t, "Ali124", 1), 300)

	s, err := New(cfg, smallWorkload(t, "Ali124", 1))
	if err != nil {
		t.Fatal(err)
	}
	seed := make([]int64, cfg.Geometry.TotalBlocks())
	for i := range seed {
		seed[i] = 90_000 // just under the default reclaim threshold
	}
	if err := s.SeedBlockState(seed, nil); err != nil {
		t.Fatal(err)
	}
	disturbed, err := s.Run(300)
	if err != nil {
		t.Fatal(err)
	}
	if disturbed.RetryRate() <= fresh.RetryRate() {
		t.Fatalf("90K accumulated reads did not raise the retry rate: %v vs %v",
			disturbed.RetryRate(), fresh.RetryRate())
	}
}

// TestSeedBlockStateRoundtrip checks the fast-forward handoff:
// counters seeded into a fresh device come back verbatim from
// BlockState, nil slices are allowed, and wrong lengths are rejected.
func TestSeedBlockStateRoundtrip(t *testing.T) {
	cfg := smallConfig(RiF, 1000)
	s, err := New(cfg, allocStubWorkload{})
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Geometry.TotalBlocks()
	reads := make([]int64, n)
	erases := make([]int64, n)
	for i := 0; i < n; i++ {
		reads[i] = int64(i % 7)
		erases[i] = int64(i % 3)
	}
	if err := s.SeedBlockState(reads, erases); err != nil {
		t.Fatal(err)
	}
	st := s.BlockState()
	for i := 0; i < n; i++ {
		if st.Reads[i] != reads[i] || st.Erases[i] != erases[i] {
			t.Fatalf("block %d: seeded (%d,%d), read back (%d,%d)",
				i, reads[i], erases[i], st.Reads[i], st.Erases[i])
		}
		if st.Senses[i] != 0 || st.ReclaimErases[i] != 0 {
			t.Fatalf("block %d: senses/reclaim-erases nonzero before any run", i)
		}
	}
	if err := s.SeedBlockState(make([]int64, n-1), nil); err == nil {
		t.Fatal("short reads slice accepted")
	}
	if err := s.SeedBlockState(nil, make([]int64, n+1)); err == nil {
		t.Fatal("long erases slice accepted")
	}
	if err := s.SeedBlockState(nil, nil); err != nil {
		t.Fatalf("nil/nil seed rejected: %v", err)
	}
}

// TestDeadDieClearsDisturbOnce: when a die drops out, its blocks'
// disturb counters are zeroed exactly once — replacement data re-homed
// onto spare dies must not inherit the dead array's sense history —
// and the clear never touches other dies.
func TestDeadDieClearsDisturbOnce(t *testing.T) {
	cfg := smallConfig(RiF, 1000)
	s, err := New(cfg, allocStubWorkload{})
	if err != nil {
		t.Fatal(err)
	}
	geo := cfg.Geometry
	n := geo.TotalBlocks()
	seed := make([]int64, n)
	for i := range seed {
		seed[i] = 7
	}
	if err := s.SeedBlockState(seed, nil); err != nil {
		t.Fatal(err)
	}
	s.noteDeadDie(0)
	for b := 0; b < n; b++ {
		die := geo.DieID(geo.BlockAddr(b))
		switch {
		case die == 0 && s.ftl.blocks.get(b).reads != 0:
			t.Fatalf("block %d on dead die 0 keeps count %d", b, s.ftl.blocks.get(b).reads)
		case die != 0 && s.ftl.blocks.get(b).reads != 7:
			t.Fatalf("block %d on live die %d lost its count", b, die)
		}
	}
	// Idempotent: a second notification must not re-zero counters the
	// re-homed data has since accumulated.
	probe := -1
	for b := 0; b < n; b++ {
		if geo.DieID(geo.BlockAddr(b)) == 0 {
			probe = b
			break
		}
	}
	s.ftl.blocks.at(probe).reads = 5
	s.noteDeadDie(0)
	if s.ftl.blocks.get(probe).reads != 5 {
		t.Fatal("second dead-die notification re-cleared counters")
	}
}
