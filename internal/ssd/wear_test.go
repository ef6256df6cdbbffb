package ssd

import (
	"testing"

	"repro/internal/nand"
	"repro/internal/trace"
)

// TestUnwornScanPicksLastFree: on a tie the wear scan keeps the free
// list's last entry, so over unworn blocks it takes exactly the block
// an allocator without wear leveling takes. Scanning from the first
// opening on, before any block is worn, therefore moves no allocation.
// The scan reads wear without making a record.
func TestUnwornScanPicksLastFree(t *testing.T) {
	f := NewFTL(tinyGeo())
	p := &f.planes[3]
	free := freeList(f, p)
	for n := len(free); n > 0; n-- {
		if got := f.popFreeBlock(p); got != free[n-1] {
			t.Fatalf("unworn scan took block %d, want the last free entry %d of %v", got, free[n-1], free[:n])
		}
	}
	if made := len(f.blocks.chunks) - f.blocks.unmade; made != 0 {
		t.Fatalf("scans made %d chunks", made)
	}
}

// TestGCVictimOpensAtPreEraseWear pins when a GC victim's erase is
// counted: after the block opening that follows the collection. That
// opening sees the victim, now first on the free list, at its
// pre-erase count, so a victim less worn than every other free block
// is the block it opens even once its erase makes it a tie.
func TestGCVictimOpensAtPreEraseWear(t *testing.T) {
	const gcLow = 2
	f := NewFTL(tinyGeo())
	p := &f.planes[0]
	ppb := f.geo.PagesPerBlock
	// Overwrite two lpns of plane 0 until the next write collects.
	i := 0
	for ; p.cursorBlock < 0 || f.FreeBlocks(p.idx) > gcLow || p.cursorPage < ppb; i++ {
		if _, _, err := f.Write(int64(i%2)*16, 0, gcLow); err != nil {
			t.Fatal(err)
		}
	}
	// The victim collect will pick: the fewest valid pages, lowest
	// block on a tie, among closed live blocks.
	victim, best := -1, int32(ppb+1)
	for block := f.writeBase; block < f.geo.BlocksPerPlane; block++ {
		if b := f.blocks.get(block); b.live && block != p.cursorBlock && b.valid < best {
			victim, best = block, b.valid
		}
	}
	for _, block := range freeList(f, p) {
		f.seedErases(p.idx*f.geo.BlocksPerPlane+block, 1)
	}
	_, gc, err := f.Write(int64(i%2)*16, 0, gcLow)
	if err != nil || gc.Erases != 1 {
		t.Fatalf("write did not collect: work %+v, err %v", gc, err)
	}
	if p.cursorBlock != victim {
		t.Fatalf("opened block %d after collecting block %d; want the victim, least worn before its erase", p.cursorBlock, victim)
	}
	if w := f.blocks.erasesOf(victim); w != 1 {
		t.Fatalf("victim carries %d erases after its collection, want 1", w)
	}
}

// wearDevice is a device small enough that a few hundred writes
// collect garbage: 4 planes with 8 write-region blocks of 8 pages.
func wearDevice(t *testing.T) *SSD {
	t.Helper()
	cfg := smallConfig(RiF, 0)
	cfg.Geometry = nand.Geometry{Channels: 2, DiesPerChan: 1, PlanesPerDie: 2,
		BlocksPerPlane: 16, PagesPerBlock: 8, PageBytes: 16 * 1024}
	s, err := New(cfg, allocStubWorkload{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// anyWear reports whether some block of the device carries erases.
func anyWear(s *SSD) bool {
	for i := 0; i < s.cfg.Geometry.TotalBlocks(); i++ {
		if b := s.ftl.blocks.peek(i); b != nil && b.erases != 0 {
			return true
		}
	}
	return false
}

// checkPicksLeastWorn makes the last free block of every plane with a
// choice the most worn, then requires the next allocation there to take
// a least-worn block instead. It restores each free list.
func checkPicksLeastWorn(t *testing.T, s *SSD) {
	t.Helper()
	geo := s.cfg.Geometry
	wearOf := func(p *planeState, block int) int32 {
		a := p.addr
		a.Block = block
		return s.ftl.blocks.get(geo.BlockID(a)).erases
	}
	checked := 0
	for i := range s.ftl.planes {
		p := &s.ftl.planes[i]
		free := freeList(s.ftl, p)
		if len(free) < 2 {
			continue
		}
		last := p.addr
		last.Block = free[len(free)-1]
		s.ftl.seedErases(geo.BlockID(last), wearOf(p, last.Block)+100)
		least := wearOf(p, free[0])
		for _, b := range free {
			if w := wearOf(p, b); w < least {
				least = w
			}
		}
		if got := s.ftl.popFreeBlock(p); wearOf(p, got) != least {
			t.Fatalf("plane %d took block %d with %d erases, want one with %d", i, got, wearOf(p, got), least)
		}
		p.listed = free
		checked++
	}
	if checked == 0 {
		t.Fatal("no plane has a free list to check")
	}
}

// TestWearScanStartsAtFirstWear: the first GC erase, reclaim erase or
// nonzero seeded wear is counted in the device's block table, and from
// then on allocation takes a least-worn free block.
func TestWearScanStartsAtFirstWear(t *testing.T) {
	t.Run("gc erase", func(t *testing.T) {
		s := wearDevice(t)
		for i := 0; ; i++ {
			if i == 2000 {
				t.Fatal("no GC erase in 2000 writes")
			}
			runs, _ := s.ftl.GCStats()
			if runs > 0 {
				break
			}
			if anyWear(s) {
				t.Fatalf("write %d: a block carries wear before any GC", i)
			}
			s.Submit(trace.Request{Op: trace.Write, LPN: int64(i%24) * 2, Pages: 2}, s.eng.Now(), allocStubWorkload{}, 0)
			s.eng.Run()
		}
		if !anyWear(s) {
			t.Fatal("a GC ran but no block carries its erase")
		}
		checkPicksLeastWorn(t, s)
	})
	t.Run("reclaim erase", func(t *testing.T) {
		s := wearDevice(t)
		for lpn := int64(0); lpn < 16; lpn += 2 {
			s.Submit(trace.Request{Op: trace.Write, LPN: lpn, Pages: 2}, s.eng.Now(), allocStubWorkload{}, 0)
			s.Submit(trace.Request{Op: trace.Read, LPN: lpn, Pages: 2}, s.eng.Now(), allocStubWorkload{}, 0)
		}
		s.eng.Run()
		if anyWear(s) {
			t.Fatal("reads and first writes wore a block")
		}
		addr, _, _ := s.ftl.Lookup(0)
		bid := s.cfg.Geometry.BlockID(addr)
		s.reclaimBlock(bid)
		s.eng.Run()
		if b := s.ftl.blocks.get(bid); s.m.ReadReclaims != 1 || b.erases != 1 || b.reclaimErases != 1 {
			t.Fatalf("after %d reclaims the block carries %d erases, %d by reclaim", s.m.ReadReclaims, b.erases, b.reclaimErases)
		}
		checkPicksLeastWorn(t, s)
	})
	t.Run("seeded wear", func(t *testing.T) {
		s := wearDevice(t)
		n := s.cfg.Geometry.TotalBlocks()
		if err := s.SeedBlockState(nil, make([]int64, n)); err != nil || anyWear(s) {
			t.Fatalf("an all-zero seed wore a block (err %v)", err)
		}
		erases := make([]int64, n)
		erases[n-1] = 3
		if err := s.SeedBlockState(nil, erases); err != nil || !anyWear(s) {
			t.Fatalf("a nonzero seed left every block unworn (err %v)", err)
		}
		for lpn := int64(0); lpn < 16; lpn += 2 {
			s.Submit(trace.Request{Op: trace.Write, LPN: lpn, Pages: 2}, s.eng.Now(), allocStubWorkload{}, 0)
		}
		s.eng.Run()
		checkPicksLeastWorn(t, s)
	})
}
