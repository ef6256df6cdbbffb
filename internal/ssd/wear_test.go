package ssd

import (
	"testing"

	"repro/internal/nand"
	"repro/internal/trace"
)

// With WearOf nil the FTL allocates exactly the blocks an all-zero
// wear scan would pick, through block openings and GC alike.
func TestNilWearOfMatchesZeroWearScan(t *testing.T) {
	plain, scanned := NewFTL(tinyGeo()), NewFTL(tinyGeo())
	scanned.WearOf = func(nand.Address, int) int { return 0 }
	gcs := 0
	for i := 0; i < 400; i++ {
		lpn := int64((i % 5) * 16)
		a, wa, err := plain.Write(lpn, 0, 1)
		b, wb, errB := scanned.Write(lpn, 0, 1)
		if err != nil || errB != nil {
			t.Fatal(err, errB)
		}
		if a != b || wa != wb {
			t.Fatalf("write %d: nil WearOf placed %+v (work %+v), zero-wear scan %+v (work %+v)", i, a, wa, b, wb)
		}
		gcs += wa.Erases
	}
	if gcs == 0 {
		t.Fatal("no GC ran; the comparison does not cover reopened blocks")
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
		if b := s.blocks.peek(i); b != nil && b.erases != 0 {
			return true
		}
	}
	return false
}

// checkPicksLeastWorn makes the last free block of every opened plane
// the most worn, then requires the next allocation there to take a
// least-worn block instead. It restores each free list.
func checkPicksLeastWorn(t *testing.T, s *SSD) {
	t.Helper()
	geo := s.cfg.Geometry
	wearOf := func(p *planeState, block int) int32 {
		a := p.addr
		a.Block = block
		return s.blocks.get(geo.BlockID(a)).erases
	}
	checked := 0
	for i := range s.ftl.planes {
		p := &s.ftl.planes[i]
		if len(p.freeBlocks) < 2 {
			continue
		}
		free := append([]int(nil), p.freeBlocks...)
		last := p.addr
		last.Block = free[len(free)-1]
		s.blocks.at(geo.BlockID(last)).erases += 100
		least := wearOf(p, free[0])
		for _, b := range free {
			if w := wearOf(p, b); w < least {
				least = w
			}
		}
		if got := s.ftl.popFreeBlock(p); wearOf(p, got) != least {
			t.Fatalf("plane %d took block %d with %d erases, want one with %d", i, got, wearOf(p, got), least)
		}
		p.freeBlocks = free
		checked++
	}
	if checked == 0 {
		t.Fatal("no plane has a free list to check")
	}
}

// WearOf stays nil until a block carries wear — exact, since until
// then the scan picks what a nil WearOf does — and is on after the
// first GC erase, reclaim erase or nonzero seeded wear.
func TestWearScanStartsAtFirstWear(t *testing.T) {
	t.Run("gc erase", func(t *testing.T) {
		s := wearDevice(t)
		for i := 0; s.ftl.WearOf == nil; i++ {
			if i == 2000 {
				t.Fatal("no GC erase in 2000 writes")
			}
			if anyWear(s) {
				t.Fatalf("write %d: a block carries wear but the scan is off", i)
			}
			s.Submit(trace.Request{Op: trace.Write, LPN: int64(i%24) * 2, Pages: 2}, s.eng.Now(), allocStubWorkload{}, 0)
			s.eng.Run()
		}
		if runs, _ := s.ftl.GCStats(); runs == 0 || !anyWear(s) {
			t.Fatalf("scan on after %d GC runs, wear %v", runs, anyWear(s))
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
		if s.ftl.WearOf != nil {
			t.Fatal("reads and first writes turned the scan on")
		}
		addr, _, _ := s.ftl.Lookup(0)
		s.reclaimBlock(s.cfg.Geometry.BlockID(addr))
		s.eng.Run()
		if s.m.ReadReclaims != 1 || s.ftl.WearOf == nil {
			t.Fatalf("after %d reclaims the scan is on: %v", s.m.ReadReclaims, s.ftl.WearOf != nil)
		}
		checkPicksLeastWorn(t, s)
	})
	t.Run("seeded wear", func(t *testing.T) {
		s := wearDevice(t)
		n := s.cfg.Geometry.TotalBlocks()
		if err := s.SeedBlockState(nil, make([]int64, n)); err != nil || s.ftl.WearOf != nil {
			t.Fatalf("an all-zero seed turned the scan on (err %v)", err)
		}
		erases := make([]int64, n)
		erases[n-1] = 3
		if err := s.SeedBlockState(nil, erases); err != nil || s.ftl.WearOf == nil {
			t.Fatalf("a nonzero seed left the scan off (err %v)", err)
		}
		for lpn := int64(0); lpn < 16; lpn += 2 {
			s.Submit(trace.Request{Op: trace.Write, LPN: lpn, Pages: 2}, s.eng.Now(), allocStubWorkload{}, 0)
		}
		s.eng.Run()
		checkPicksLeastWorn(t, s)
	})
}
