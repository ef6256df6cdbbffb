package ssd

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/nand"
	"repro/internal/sim"
)

// freeList returns a plane's free blocks in the order of the one list
// the allocator once kept for them: the listed blocks, then the
// never-opened ones, highest first.
func freeList(f *FTL, p *planeState) []int {
	free := slices.Clone(p.listed)
	base := p.idx * f.geo.BlocksPerPlane
	for b := f.geo.BlocksPerPlane - 1; b >= p.nextUnused; b-- {
		if !f.blocks.retired(base + b) {
			free = append(free, b)
		}
	}
	return free
}

// The reference allocator is the one the FTL kept before never-opened
// blocks were taken by a cursor. touch makes a plane's eager free list,
// as a plane's first open once did: the whole write region, highest
// first. From then on the plane runs only the list paths (the scan,
// the erase's push to the front, retirement's removal).
func touch(f *FTL, p *planeState) {
	p.listed = p.listed[:0]
	for b := f.geo.BlocksPerPlane - 1; b >= f.writeBase; b-- {
		p.listed = append(p.listed, b)
	}
	p.nextUnused, p.unused = f.geo.BlocksPerPlane, 0
}

// refScan is the reference allocator's choice among free, a plane's
// eager free list: the least-erased block, preferring the list's last
// entry, then its first, on a tie.
func refScan(f *FTL, p *planeState, free []int) int {
	base := p.idx * f.geo.BlocksPerPlane
	idx := len(free) - 1
	best := f.blocks.erasesOf(base + free[idx])
	for i, b := range free[:idx] {
		if w := f.blocks.erasesOf(base + b); w < best {
			best, idx = w, i
		}
	}
	return free[idx]
}

// trialPop reports the block the plane would open next, leaving the
// plane as it was.
func trialPop(f *FTL, p *planeState) int {
	q := *p
	q.listed = slices.Clone(p.listed)
	return f.popFreeBlock(&q)
}

// TestFreeListMatchesEagerReference drives two devices through the
// same random writes (and the garbage collections they trigger),
// read-reclaims, block retirements, die failures and seeded wear. One
// keeps the FTL's lazy free list; the other starts every plane on the
// reference's eager list. After every step the two must agree on every
// plane's free blocks, in list order, on the block each plane opens
// next (which must also be refScan's choice), and on every block's
// record and every page's mapping — so every block opening picked what
// the reference picked.
func TestFreeListMatchesEagerReference(t *testing.T) {
	geo := nand.Geometry{Channels: 2, DiesPerChan: 2, PlanesPerDie: 2,
		BlocksPerPlane: 16, PagesPerBlock: 8, PageBytes: 16 * 1024}
	const lpns = 96 // 12 live pages per plane of 64
	build := func() *SSD {
		cfg := smallConfig(RiF, 0)
		cfg.Geometry = geo
		s, err := New(cfg, allocStubWorkload{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	prop := func(ops []uint32) bool {
		lazy, ref := build(), build()
		for i := range ref.ftl.planes {
			touch(ref.ftl, &ref.ftl.planes[i])
		}
		dead := make([]bool, geo.TotalDies())
		for _, s := range []*SSD{lazy, ref} {
			s.ftl.DieDown = func(d int) bool { return dead[d] }
		}
		for i, op := range ops {
			arg := int(op >> 5)
			var got, want string
			var err error
			switch k := op % 32; {
			case k < 22:
				lpn, now := int64(arg%lpns), sim.Time(i+1)
				a, gc, e := lazy.ftl.Write(lpn, now, 2)
				got, err = fmt.Sprint(a, gc, e), e
				want = fmt.Sprint(ref.ftl.Write(lpn, now, 2))
			case k < 25:
				a, _, _ := lazy.ftl.Lookup(int64(arg % lpns))
				gc, e := lazy.ftl.ReclaimBlock(a)
				got, err = fmt.Sprint(gc, e), e
				want = fmt.Sprint(ref.ftl.ReclaimBlock(a))
			case k < 27:
				a := lazy.ftl.planes[arg%len(lazy.ftl.planes)].addr
				a.Block = (arg / len(lazy.ftl.planes)) % geo.BlocksPerPlane
				lazy.ftl.RetireBlock(a)
				ref.ftl.RetireBlock(a)
			case k < 30:
				bid := arg % geo.TotalBlocks()
				erases := lazy.BlockState().Erases
				erases[bid] += int64(1 + arg%3)
				got = fmt.Sprint(lazy.SeedBlockState(nil, erases))
				want = fmt.Sprint(ref.SeedBlockState(nil, erases))
			default:
				d := arg % len(dead)
				if !dead[d] && !slices.Contains(dead, false) {
					continue
				}
				dead[d] = !dead[d]
				if !slices.Contains(dead, false) {
					dead[d] = false // keep one die up
				}
			}
			if got != want {
				t.Logf("op %d of %d (%d): lazy returned %s, reference %s", i, len(ops), op, got, want)
				return false
			}
			if msg := compareFTLs(lazy.ftl, ref.ftl, lpns); msg != "" {
				t.Logf("after op %d of %d (%d): %s", i, len(ops), op, msg)
				return false
			}
			if err != nil {
				return true // both failed the op alike; a device stops there
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 100,
		Rand:     rand.New(rand.NewSource(1)),
		Values: func(v []reflect.Value, r *rand.Rand) {
			ops := make([]uint32, 100+r.Intn(400))
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

// compareFTLs describes the first difference between the lazy FTL and
// the reference ("" if none): a plane's free blocks or next opening, a
// block's record, or a page's mapping.
func compareFTLs(lazy, ref *FTL, lpns int64) string {
	for i := range lazy.planes {
		p, q := &lazy.planes[i], &ref.planes[i]
		if p.cursorBlock != q.cursorBlock || p.cursorPage != q.cursorPage {
			return fmt.Sprintf("plane %d cursor at block %d page %d, reference at %d page %d",
				i, p.cursorBlock, p.cursorPage, q.cursorBlock, q.cursorPage)
		}
		free := freeList(lazy, p)
		if !slices.Equal(free, q.listed) || lazy.FreeBlocks(i) != len(q.listed) {
			return fmt.Sprintf("plane %d free blocks %v (count %d), reference %v",
				i, free, lazy.FreeBlocks(i), q.listed)
		}
		if len(free) == 0 {
			continue
		}
		if got, want := trialPop(lazy, p), refScan(ref, q, q.listed); got != want {
			return fmt.Sprintf("plane %d would open block %d, reference %d of %v", i, got, want, q.listed)
		}
	}
	for bid := 0; bid < lazy.geo.TotalBlocks(); bid++ {
		a, b := lazy.blocks.get(bid), ref.blocks.get(bid)
		if a.live != b.live || a.valid != b.valid || a.erases != b.erases || a.reclaimErases != b.reclaimErases ||
			a.retired != b.retired || (a.slots == 0) != (b.slots == 0) {
			return fmt.Sprintf("block %d: %+v, reference %+v", bid, a, b)
		}
	}
	for lpn := int64(0); lpn < lpns; lpn++ {
		a, at, ok := lazy.Lookup(lpn)
		b, bt, rok := ref.Lookup(lpn)
		if a != b || at != bt || ok != rok {
			return fmt.Sprintf("lpn %d maps to %+v, reference %+v", lpn, a, b)
		}
	}
	return ""
}
