package ssd

import (
	"reflect"
	"testing"

	"repro/internal/nand"
	"repro/internal/trace"
)

func tinyGeo() nand.Geometry {
	return nand.Geometry{
		Channels: 2, DiesPerChan: 2, PlanesPerDie: 4,
		BlocksPerPlane: 8, PagesPerBlock: 4, PageBytes: 16 * 1024,
	}
}

func TestFTLStriping(t *testing.T) {
	f := NewFTL(tinyGeo())
	// Consecutive lpns fill planes of one die, then move to the next
	// channel.
	a0, _, _ := f.Lookup(0)
	a1, _, _ := f.Lookup(1)
	a3, _, _ := f.Lookup(3)
	a4, _, _ := f.Lookup(4)
	if a0.Channel != a1.Channel || a0.Die != a1.Die || a0.Plane == a1.Plane {
		t.Fatalf("lpn 0/1 not plane-striped: %+v %+v", a0, a1)
	}
	if a3.Plane != 3 {
		t.Fatalf("lpn 3 plane = %d", a3.Plane)
	}
	if a4.Channel == a0.Channel {
		t.Fatalf("lpn 4 did not move to the next channel: %+v", a4)
	}
}

func TestFTLMultiPlaneGroupsShareDie(t *testing.T) {
	f := NewFTL(nand.PaperGeometry())
	for group := int64(0); group < 100; group++ {
		base := group * 4
		a0, _, _ := f.Lookup(base)
		for i := int64(1); i < 4; i++ {
			a, _, _ := f.Lookup(base + i)
			if a.Channel != a0.Channel || a.Die != a0.Die {
				t.Fatalf("group %d not on one die", group)
			}
		}
	}
}

func TestFTLPrefillDeterministicAndDisjoint(t *testing.T) {
	f := NewFTL(tinyGeo())
	seen := map[nand.Address]int64{}
	// The pre-fill capacity of this geometry: 16 planes * 4 blocks
	// (write base = 8/2) * 4 pages = 256 pages.
	for lpn := int64(0); lpn < 256; lpn++ {
		a, _, written := f.Lookup(lpn)
		if written {
			t.Fatalf("lpn %d reported written on fresh FTL", lpn)
		}
		if a.Block >= 4 {
			t.Fatalf("prefill lpn %d in write region: %+v", lpn, a)
		}
		if prev, dup := seen[a]; dup {
			t.Fatalf("lpn %d and %d share prefill page %+v", prev, lpn, a)
		}
		seen[a] = lpn
		b, _, _ := f.Lookup(lpn)
		if b != a {
			t.Fatal("prefill lookup not deterministic")
		}
	}
}

func TestFTLWriteRemaps(t *testing.T) {
	f := NewFTL(tinyGeo())
	pre, _, _ := f.Lookup(5)
	addr, gc, err := f.Write(5, 1000, 0)
	if err != nil || gc != nil {
		t.Fatalf("write: %v gc=%v", err, gc)
	}
	if addr.Block < 4 {
		t.Fatalf("write landed in prefill region: %+v", addr)
	}
	got, at, written := f.Lookup(5)
	if !written || got != addr || at != 1000 {
		t.Fatalf("lookup after write: %+v at=%v written=%v", got, at, written)
	}
	if got == pre {
		t.Fatal("write did not remap")
	}
	// Second write moves again and invalidates.
	addr2, _, err := f.Write(5, 2000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if addr2 == addr {
		t.Fatal("rewrite reused the same physical page")
	}
}

func TestFTLGarbageCollection(t *testing.T) {
	f := NewFTL(tinyGeo())
	// Hammer one stripe position so a single plane fills: lpns
	// congruent to 0 mod 16 land on plane 0. 4 free blocks x 4 pages:
	// keep 2 live lpns, overwrite them repeatedly.
	var sawGC bool
	for i := 0; i < 200; i++ {
		lpn := int64((i % 2) * 16)
		_, gc, err := f.Write(lpn, 0, 1)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if gc != nil {
			sawGC = true
			if gc.Erases != 1 {
				t.Fatalf("gc erases = %d", gc.Erases)
			}
		}
	}
	if !sawGC {
		t.Fatal("garbage collection never triggered")
	}
	runs, relocated := f.GCStats()
	if runs == 0 {
		t.Fatal("GC stats empty")
	}
	if relocated < 0 || relocated > runs*int64(tinyGeo().PagesPerBlock) {
		t.Fatalf("relocated %d pages over %d runs", relocated, runs)
	}
	// Both live lpns must still resolve.
	for _, lpn := range []int64{0, 16} {
		if _, _, written := f.Lookup(lpn); !written {
			t.Fatalf("lpn %d lost after GC", lpn)
		}
	}
}

func TestFTLGCPreservesData(t *testing.T) {
	f := NewFTL(tinyGeo())
	// Fill plane 0 with distinct live lpns until GC must run, and
	// verify every mapping stays unique and resolvable.
	live := []int64{0, 16, 32, 48, 64, 80}
	for round := 0; round < 30; round++ {
		lpn := live[round%len(live)]
		if _, _, err := f.Write(lpn, 0, 1); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		addrs := map[nand.Address]int64{}
		for _, l := range live[:min(len(live), round+1)] {
			a, _, w := f.Lookup(l)
			if !w {
				continue
			}
			if other, dup := addrs[a]; dup {
				t.Fatalf("lpns %d and %d map to the same page %+v", other, l, a)
			}
			addrs[a] = l
		}
	}
}

func TestFTLWearAwareAllocation(t *testing.T) {
	// With wear feedback, GC'd planes spread erases across blocks
	// rather than hammering the most recently freed one.
	geo := tinyGeo()
	wear := make(map[[2]int]int) // (planeBlockKey) -> erases
	f := NewFTL(geo)
	f.WearOf = func(plane nand.Address, block int) int {
		return wear[[2]int{geo.BlockID(nand.Address{Channel: plane.Channel, Die: plane.Die, Plane: plane.Plane}), block}]
	}
	for i := 0; i < 400; i++ {
		lpn := int64((i % 2) * 16) // two live lpns on plane 0
		_, gc, err := f.Write(lpn, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if gc != nil {
			key := [2]int{geo.BlockID(nand.Address{Channel: gc.Plane.Channel, Die: gc.Plane.Die, Plane: gc.Plane.Plane}), gc.VictimBlock}
			wear[key]++
		}
	}
	if len(wear) < 3 {
		t.Fatalf("erases concentrated on %d blocks; wear leveling inactive", len(wear))
	}
	// No block should carry a dominant share of the erases.
	total, max := 0, 0
	for _, w := range wear {
		total += w
		if w > max {
			max = w
		}
	}
	if max*2 > total {
		t.Fatalf("one block took %d of %d erases", max, total)
	}
}

func TestFTLOutOfSpace(t *testing.T) {
	f := NewFTL(tinyGeo())
	// 4 free blocks x 4 pages = 16 physical slots on plane 0. Writing
	// 17+ distinct lpns (all live, nothing to collect) must fail
	// rather than corrupt state.
	var err error
	for i := 0; i < 40 && err == nil; i++ {
		_, _, err = f.Write(int64(i*16), 0, 0)
	}
	if err == nil {
		t.Fatal("overfilling a plane did not error")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestGCVictimDeterministic reruns a write-heavy, GC-bound device at
// one seed and requires the identical per-block state. Greedy GC picks
// the block with the fewest valid pages; ties are common once reclaim
// and overwrites empty blocks, and a tie broken by map iteration order
// sent identical runs down different erase histories.
func TestGCVictimDeterministic(t *testing.T) {
	const n = 100_000
	state := func() BlockCounters {
		cfg := DefaultConfig(RiF, 0)
		cfg.Geometry.BlocksPerPlane = 32
		cfg.Geometry.PagesPerBlock = 64
		cfg.ReadReclaimThreshold = 64
		spec, err := trace.ByName("Ali2")
		if err != nil {
			t.Fatal(err)
		}
		spec.FootprintPages = 1 << 16
		w, err := trace.NewGenerator(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Run(n)
		if err != nil {
			t.Fatal(err)
		}
		if m.GCRuns == 0 {
			t.Fatal("no garbage collection ran; the test does not exercise victim choice")
		}
		return s.BlockState()
	}
	a, b := state(), state()
	if !reflect.DeepEqual(a, b) {
		for i := range a.Erases {
			if a.Erases[i] != b.Erases[i] {
				t.Fatalf("same-seed reruns diverge: block %d erased %d vs %d times", i, a.Erases[i], b.Erases[i])
			}
		}
		t.Fatal("same-seed reruns left different per-block state")
	}
}
