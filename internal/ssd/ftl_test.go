package ssd

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/nand"
	"repro/internal/sim"
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
	if err != nil || gc.Erases > 0 {
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
		if gc.Erases > 0 {
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
	// The FTL counts its GC erases, and GC'd planes spread them across
	// blocks rather than hammering the most recently freed one.
	geo := tinyGeo()
	f := NewFTL(geo)
	erases := 0
	for i := 0; i < 400; i++ {
		lpn := int64((i % 2) * 16) // two live lpns on plane 0
		_, gc, err := f.Write(lpn, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		erases += gc.Erases
	}
	worn, total, max := 0, 0, 0
	for bid := 0; bid < geo.TotalBlocks(); bid++ {
		if w := int(f.blocks.erasesOf(bid)); w > 0 {
			worn++
			total += w
			if w > max {
				max = w
			}
		}
	}
	if total != erases {
		t.Fatalf("blocks carry %d erases, GC reported %d", total, erases)
	}
	if worn < 3 {
		t.Fatalf("erases concentrated on %d blocks; wear leveling inactive", worn)
	}
	// No block should carry a dominant share of the erases.
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

// TestFTLMappingProperties drives the FTL through random sequences of
// host writes, read-reclaims, block retirements and die failures, and
// checks after every step that
//   - no two written lpns resolve to the same physical page, and each
//     page's slot names the lpn that maps to it;
//   - Lookup reports every written lpn's last host write time, across
//     GC relocation and reclaim migration;
//   - every plane's write region is accounted for: free blocks, blocks
//     in use (open or closed) and idle retired blocks sum to it;
//   - only the open block and blocks holding valid data keep page
//     slots, so memory follows the live data;
//   - each plane has at most one live, unretired, part-written block,
//     its cursor: no block is closed before it fills.
//
// A sequence stops at the first write the FTL cannot place: a device
// fails its run there.
func TestFTLMappingProperties(t *testing.T) {
	geo := tinyGeo()
	const lpns = 32 // two live pages per plane
	prop := func(ops []uint32) bool {
		f := NewFTL(geo)
		dead := make([]bool, geo.TotalDies())
		f.DieDown = func(d int) bool { return dead[d] }
		want := map[int64]sim.Time{}
		for i, op := range ops {
			arg := int(op >> 5)
			switch k := op % 32; {
			case k < 26:
				lpn, now := int64(arg%lpns), sim.Time(i+1)
				if _, _, err := f.Write(lpn, now, 1); err != nil {
					return true
				}
				want[lpn] = now
			case k < 29:
				a, _, _ := f.Lookup(int64(arg % lpns))
				if _, err := f.ReclaimBlock(a); err != nil {
					return true
				}
			case k == 29:
				a := f.planes[arg%len(f.planes)].addr
				a.Block = (arg / len(f.planes)) % geo.BlocksPerPlane
				f.RetireBlock(a)
			default:
				d := arg % len(dead)
				live := 0
				for _, down := range dead {
					if !down {
						live++
					}
				}
				if !dead[d] && live == 1 {
					continue // keep one die up
				}
				dead[d] = !dead[d]
			}
			if msg := checkFTL(f, want, lpns); msg != "" {
				t.Logf("after op %d of %d (%d): %s", i, len(ops), op, msg)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Rand:     rand.New(rand.NewSource(1)),
		Values: func(v []reflect.Value, r *rand.Rand) {
			ops := make([]uint32, 200+r.Intn(400))
			for i := range ops {
				ops[i] = r.Uint32()
			}
			v[0] = reflect.ValueOf(ops)
		},
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// checkFTL checks the mapping properties of TestFTLMappingProperties
// against want, the last host write time of every written lpn below
// lpns, and describes the first violation ("" if none).
func checkFTL(f *FTL, want map[int64]sim.Time, lpns int64) string {
	seen := map[nand.Address]int64{}
	for lpn := int64(0); lpn < lpns; lpn++ {
		a, at, written := f.Lookup(lpn)
		wantAt, ok := want[lpn]
		switch {
		case written != ok:
			return fmt.Sprintf("lpn %d written = %v, want %v", lpn, written, ok)
		case !ok:
			continue
		case at != wantAt:
			return fmt.Sprintf("lpn %d write time %v, want %v", lpn, at, wantAt)
		case a.Block < f.writeBase:
			return fmt.Sprintf("lpn %d maps into the pre-fill region: %+v", lpn, a)
		}
		if other, dup := seen[a]; dup {
			return fmt.Sprintf("lpns %d and %d share page %+v", other, lpn, a)
		}
		seen[a] = lpn
		b := f.blocks.get(f.geo.BlockID(a))
		if got := f.slot(&b, a.Page).lpn; got != uint32(lpn)+1 {
			return fmt.Sprintf("page %+v of lpn %d holds slot %d", a, lpn, got)
		}
	}
	valid := 0
	for i := range f.planes {
		p := &f.planes[i]
		region := f.geo.BlocksPerPlane - f.writeBase
		free := map[int]bool{}
		for _, b := range freeList(f, p) {
			if free[b] {
				return fmt.Sprintf("plane %d lists block %d free twice", i, b)
			}
			free[b] = true
		}
		if n := f.FreeBlocks(i); n != len(free) {
			return fmt.Sprintf("plane %d counts %d free blocks and holds %d", i, n, len(free))
		}
		inUse, idleRetired := 0, 0
		for block := f.writeBase; block < f.geo.BlocksPerPlane; block++ {
			b := f.blocks.get(i*f.geo.BlocksPerPlane + block)
			if (b.slots != 0) != (b.valid > 0 || block == p.cursorBlock) {
				return fmt.Sprintf("plane %d block %d with %d valid pages holds slots: %v", i, block, b.valid, b.slots != 0)
			}
			if b.live && !b.retired && block != p.cursorBlock && !lastPageWritten(f, &b) {
				return fmt.Sprintf("plane %d block %d was closed part-written", i, block)
			}
			switch {
			case b.live:
				inUse++
				valid += int(b.valid)
			case b.retired:
				idleRetired++
			}
			if (b.live || b.retired) && free[block] {
				return fmt.Sprintf("plane %d block %d is free and in use or retired", i, block)
			}
		}
		if f.FreeBlocks(i)+inUse+idleRetired != region {
			return fmt.Sprintf("plane %d: %d free + %d in use + %d retired of %d blocks",
				i, f.FreeBlocks(i), inUse, idleRetired, region)
		}
	}
	if valid != len(want) {
		return fmt.Sprintf("%d valid pages for %d written lpns", valid, len(want))
	}
	return ""
}

// lastPageWritten reports whether a block's last page has been
// written, telling from its page slots: a written page keeps its write
// time, which these tests start at 1, after it is invalidated. A block
// without slots holds no valid data and tells nothing, so it passes.
func lastPageWritten(f *FTL, b *blockState) bool {
	if b.slots == 0 {
		return true
	}
	last := f.geo.PagesPerBlock - 1
	c := f.slotsOf(b)[last>>slotShift]
	return c != nil && c[last&slotMask].at != 0
}

// TestGCRelocationDoesNotWedge runs uniform random writes on one plane
// at footprints where most GC victims still hold valid pages. A GC
// that relocates must write on into the block the relocation opened:
// closing it part-written costs a free block per collection, and the
// plane runs dry ("wedged during relocation") within a few dozen GCs.
func TestGCRelocationDoesNotWedge(t *testing.T) {
	geo := nand.Geometry{
		Channels: 1, DiesPerChan: 1, PlanesPerDie: 1,
		BlocksPerPlane: 64, PagesPerBlock: 16, PageBytes: 16 * 1024,
	}
	const writes, gcLow = 20_000, 2
footprints:
	for _, footprint := range []int{64, 160, 256, 320} {
		f := NewFTL(geo)
		rng := sim.NewRNG(1, uint64(footprint))
		for i := 0; i < writes; i++ {
			if _, _, err := f.Write(int64(rng.IntN(footprint)), sim.Time(i+1), gcLow); err != nil {
				t.Errorf("footprint %d: write %d: %v", footprint, i, err)
				continue footprints
			}
		}
		runs, moved := f.GCStats()
		t.Logf("footprint %d: %d GCs, write amplification %.2f", footprint, runs, float64(writes+int(moved))/writes)
		if runs == 0 {
			t.Errorf("footprint %d: no GC ran", footprint)
		}
	}
}
