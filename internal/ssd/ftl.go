package ssd

import (
	"fmt"

	"repro/internal/nand"
	"repro/internal/sim"
)

// FTL is a page-mapping flash translation layer. Logical pages are
// striped plane-first across the array so that consecutive pages form
// multi-plane groups on one die and successive groups fan out across
// channels (maximizing both multi-plane and channel parallelism, as
// in MQSim's default mapping).
//
// The physical space of every plane is split in two: the lower half
// holds the pre-fill image (cold data present before the simulation,
// never rewritten), the upper half is the active write region managed
// with free-block lists and greedy garbage collection.
//
// Every table is a slice, made on first use: the forward map in
// chunks, a plane's free list on the plane's first open. Each block's
// state lives in the device's one per-block table (blocks), whose
// record a block gets on its first open. A block's page slots are held
// only while it may hold valid data and are recycled through a spare
// pool, so memory follows the live data, not the pages ever written.
// Once the pool is warm, a write allocates nothing, even one that
// collects garbage or migrates a block for read-reclaim.
type FTL struct {
	geo       nand.Geometry
	writeBase int   // first block of the write region in every plane
	pages     int64 // logical pages; every lpn lies in [0, pages)

	// blocks is the device's per-block record, by dense block id: the
	// FTL's slots, valid count, live and retired flags, and the wear
	// and disturb counters the device keeps beside them.
	blocks blockTable

	// DieDown, when set, reports a dead die by dense index; Write then
	// fails writes over to the same plane offset of the next live die.
	DieDown func(dieIdx int) bool

	// fwd is the forward map of pages written during the run: entry
	// lpn&fwdMask of chunk lpn>>fwdShift holds the page's physical page
	// number plus one, 0 while the page is still cold. A chunk is made
	// on the first write into it.
	fwd []*[fwdChunk]uint32

	planes []planeState

	// slotArrays holds every page-slot array made so far; a block's
	// record names its array by index plus one (slotsOf). spare lists
	// the cleared arrays, those of no block holding valid data, for the
	// next block that opens.
	slotArrays [][]pageSlot
	spare      []int32

	// Counters surfaced through Metrics.
	gcRuns         int64
	pagesRelocated int64
	dieFailovers   int64
}

// The forward map's chunk size: 4096 entries, 16 KiB.
const (
	fwdShift = 12
	fwdChunk = 1 << fwdShift
	fwdMask  = fwdChunk - 1
)

type planeState struct {
	addr        nand.Address // channel/die/plane coordinates
	idx         int          // dense plane index
	cursorBlock int
	cursorPage  int
	// freeBlocks is nil until the plane first opens a block.
	freeBlocks []int
}

// pageSlot is what one physical page holds.
type pageSlot struct {
	lpn uint32   // lpn + 1; 0 when the page holds no valid data
	at  sim.Time // the data's write time, kept across relocation
}

// NewFTL builds the translation layer for a geometry. Its page count
// must fit a uint32, as Config.Validate checks.
func NewFTL(geo nand.Geometry) *FTL {
	pages := int64(geo.TotalPages())
	f := &FTL{
		geo:       geo,
		writeBase: geo.BlocksPerPlane / 2,
		pages:     pages,
		blocks:    newBlockTable(geo.TotalBlocks()),
		fwd:       make([]*[fwdChunk]uint32, (pages+fwdChunk-1)>>fwdShift),
	}
	nPlanes := geo.TotalDies() * geo.PlanesPerDie
	f.planes = make([]planeState, nPlanes)
	for i := range f.planes {
		ch, die, pl := f.planeCoords(i)
		p := &f.planes[i]
		p.addr = nand.Address{Channel: ch, Die: die, Plane: pl}
		p.idx = i
		p.cursorBlock = -1
	}
	return f
}

// touch makes a plane's free list on its first use. Free blocks: the
// whole write region, allocated low-first.
func (f *FTL) touch(p *planeState) {
	if p.freeBlocks != nil {
		return
	}
	n := f.geo.BlocksPerPlane - f.writeBase
	p.freeBlocks = make([]int, 0, n)
	for b := f.geo.BlocksPerPlane - 1; b >= f.writeBase; b-- {
		p.freeBlocks = append(p.freeBlocks, b)
	}
}

// planeIndexOfAddr maps physical coordinates back to the plane index.
func (f *FTL) planeIndexOfAddr(a nand.Address) int {
	return ((a.Channel*f.geo.DiesPerChan)+a.Die)*f.geo.PlanesPerDie + a.Plane
}

// planeIndex maps an lpn to its plane (striping).
func (f *FTL) planeIndex(lpn int64) int {
	p := f.geo.PlanesPerDie
	c := f.geo.Channels
	d := f.geo.DiesPerChan
	pl := int(lpn % int64(p))
	group := lpn / int64(p)
	ch := int(group % int64(c))
	die := int((group / int64(c)) % int64(d))
	return ((ch*d)+die)*p + pl
}

func (f *FTL) planeCoords(idx int) (ch, die, pl int) {
	p := f.geo.PlanesPerDie
	d := f.geo.DiesPerChan
	pl = idx % p
	idx /= p
	die = idx % d
	ch = idx / d
	return ch, die, pl
}

// prefillAddress is the deterministic physical home of never-written
// cold data.
func (f *FTL) prefillAddress(lpn int64) nand.Address {
	pIdx := f.planeIndex(lpn)
	ch, die, pl := f.planeCoords(pIdx)
	groupsPerRound := int64(f.geo.Channels * f.geo.DiesPerChan)
	perPlane := (lpn / int64(f.geo.PlanesPerDie)) / groupsPerRound
	capacity := int64(f.writeBase) * int64(f.geo.PagesPerBlock)
	perPlane %= capacity // footprints beyond the pre-fill region alias
	return nand.Address{
		Channel: ch,
		Die:     die,
		Plane:   pl,
		Block:   int(perPlane / int64(f.geo.PagesPerBlock)),
		Page:    int(perPlane % int64(f.geo.PagesPerBlock)),
	}
}

// mapped returns lpn's forward-map entry: its physical page number
// plus one, or 0 when the page was not written during the run.
func (f *FTL) mapped(lpn int64) uint32 {
	c := uint64(lpn) >> fwdShift
	if c >= uint64(len(f.fwd)) || f.fwd[c] == nil {
		return 0
	}
	return f.fwd[c][lpn&fwdMask]
}

// ppn numbers a physical page densely, in nand.Geometry.PPN order.
func (f *FTL) ppn(pIdx, block, page int) uint32 {
	return uint32((pIdx*f.geo.BlocksPerPlane+block)*f.geo.PagesPerBlock + page)
}

// block returns the record of a plane's block, making its chunk on
// first use.
func (f *FTL) block(p *planeState, block int) *blockState {
	return f.blocks.at(p.idx*f.geo.BlocksPerPlane + block)
}

// slotOf resolves a physical page number to its plane, its block's
// record and the write-region slot that holds it.
func (f *FTL) slotOf(ppn uint32) (p *planeState, b *blockState, block, page int, s *pageSlot) {
	ppb := uint32(f.geo.PagesPerBlock)
	bid := ppn / ppb
	page = int(ppn % ppb)
	p = &f.planes[bid/uint32(f.geo.BlocksPerPlane)]
	block = int(bid % uint32(f.geo.BlocksPerPlane))
	b = f.blocks.at(int(bid))
	return p, b, block, page, &f.slotsOf(b)[page]
}

// slotsOf returns a block's page slots, by page in block. The block
// must hold them: it is open or holds valid data.
func (f *FTL) slotsOf(b *blockState) []pageSlot { return f.slotArrays[b.slots-1] }

// Lookup resolves a logical page. For pages written during the run it
// reports the mapped address and the write timestamp; for cold pages
// it reports the pre-fill address with written == false.
func (f *FTL) Lookup(lpn int64) (addr nand.Address, writtenAt sim.Time, written bool) {
	if v := f.mapped(lpn); v != 0 {
		p, _, block, page, s := f.slotOf(v - 1)
		addr = p.addr
		addr.Block = block
		addr.Page = page
		return addr, s.at, true
	}
	return f.prefillAddress(lpn), 0, false
}

// GCWork describes the relocation the caller must charge to the die
// before the write that triggered it proceeds. The zero value (no
// erase) means no work was done.
type GCWork struct {
	PagesRelocated int
	Erases         int
}

// Write maps lpn to a fresh physical page, invalidating any previous
// mapping. It returns the new address and any garbage-collection work
// performed to free space. gcLow is the free-block low-water mark.
func (f *FTL) Write(lpn int64, now sim.Time, gcLow int) (nand.Address, GCWork, error) {
	if uint64(lpn) >= uint64(f.pages) {
		return nand.Address{}, GCWork{}, fmt.Errorf("ssd: lpn %d outside the device's %d pages", lpn, f.pages)
	}
	pIdx := f.planeIndex(lpn)
	if f.DieDown != nil {
		live, ok := f.failover(pIdx)
		if !ok {
			return nand.Address{}, GCWork{}, fmt.Errorf("ssd: every die down, cannot place lpn %d", lpn)
		}
		if live != pIdx {
			f.dieFailovers++
		}
		pIdx = live
	}
	p := &f.planes[pIdx]

	var gc GCWork
	if p.cursorBlock < 0 || p.cursorPage >= f.geo.PagesPerBlock {
		f.touch(p)
		victim := -1
		if len(p.freeBlocks) <= gcLow {
			var err error
			if gc, victim, err = f.collect(p); err != nil {
				return nand.Address{}, GCWork{}, err
			}
		}
		if len(p.freeBlocks) == 0 {
			return nand.Address{}, GCWork{}, fmt.Errorf("ssd: plane %v out of free blocks", p.addr)
		}
		f.open(p)
		if victim >= 0 {
			// The victim's erase counts only now: the opening above
			// chose by wear with the victim at its pre-erase count.
			f.block(p, victim).noteErase()
		}
	}
	f.invalidate(lpn)
	return f.place(p, lpn, now), gc, nil
}

// open makes a free block the plane's cursor block.
func (f *FTL) open(p *planeState) {
	if p.cursorBlock >= 0 {
		// The closing block keeps its slots only if it holds valid data.
		if b := f.block(p, p.cursorBlock); b.valid == 0 {
			f.release(b)
		}
	}
	block := f.popFreeBlock(p)
	p.cursorBlock = block
	p.cursorPage = 0
	b := f.block(p, block)
	if n := len(f.spare); n > 0 {
		b.slots = f.spare[n-1]
		f.spare = f.spare[:n-1]
	} else {
		f.slotArrays = append(f.slotArrays, make([]pageSlot, f.geo.PagesPerBlock))
		b.slots = int32(len(f.slotArrays))
	}
	b.live = true
}

// release clears a block's page slots into the spare pool: the block
// holds no valid data.
func (f *FTL) release(b *blockState) {
	clear(f.slotsOf(b))
	f.spare = append(f.spare, b.slots)
	b.slots = 0
}

// place programs lpn's data, written at time at, into the plane's
// cursor page and points the forward map at it.
func (f *FTL) place(p *planeState, lpn int64, at sim.Time) nand.Address {
	addr := p.addr
	addr.Block = p.cursorBlock
	addr.Page = p.cursorPage
	p.cursorPage++
	b := f.block(p, addr.Block)
	f.slotsOf(b)[addr.Page] = pageSlot{lpn: uint32(lpn) + 1, at: at}
	b.valid++
	c := f.fwd[lpn>>fwdShift]
	if c == nil {
		c = new([fwdChunk]uint32)
		f.fwd[lpn>>fwdShift] = c
	}
	c[lpn&fwdMask] = f.ppn(p.idx, addr.Block, addr.Page) + 1
	return addr
}

// invalidate drops lpn's old physical page, if any. The old mapping's
// own physical page number locates the plane: with die failover the
// page may not live on the plane the striping would predict.
func (f *FTL) invalidate(lpn int64) {
	v := f.mapped(lpn)
	if v == 0 {
		return
	}
	p, b, block, _, s := f.slotOf(v - 1)
	s.lpn = 0
	b.valid--
	if b.valid == 0 && block != p.cursorBlock {
		f.release(b)
	}
}

// failover redirects a write aimed at a dead die to the same plane
// offset on the next live die, scanning in dense-die order. It
// reports false when every die is down.
func (f *FTL) failover(pIdx int) (int, bool) {
	planes := f.geo.PlanesPerDie
	dies := f.geo.TotalDies()
	dieIdx := pIdx / planes
	off := pIdx % planes
	for k := 0; k < dies; k++ {
		d := (dieIdx + k) % dies
		if !f.DieDown(d) {
			return d*planes + off, true
		}
	}
	return 0, false
}

// RetireBlock pulls a grown-bad block out of circulation: it is
// removed from its plane's free list (if free) and will never be
// returned to it by garbage collection. Retirement erases the block,
// so its disturb counter clears.
func (f *FTL) RetireBlock(a nand.Address) {
	p := &f.planes[f.planeIndexOfAddr(a)]
	b := f.block(p, a.Block)
	b.retired = true
	b.reads = 0
	f.touch(p)
	for i, b := range p.freeBlocks {
		if b == a.Block {
			p.freeBlocks = append(p.freeBlocks[:i], p.freeBlocks[i+1:]...)
			return
		}
	}
}

// blockRetired reports whether the block at a has been retired.
func (f *FTL) blockRetired(a nand.Address) bool {
	b := f.blocks.peek(f.geo.BlockID(a))
	return b != nil && b.retired
}

// Failovers reports how many writes were re-homed off dead dies.
func (f *FTL) Failovers() int64 { return f.dieFailovers }

// collect performs greedy garbage collection on a plane: the closed
// block with the fewest valid pages — the lowest-indexed one on a tie
// — is relocated (copyback, so no channel traffic) and erased. It
// returns the work and the victim, whose erase the caller counts.
func (f *FTL) collect(p *planeState) (GCWork, int, error) {
	victim := -1
	best := int32(f.geo.PagesPerBlock + 1)
	base := p.idx * f.geo.BlocksPerPlane
	for block := f.writeBase; block < f.geo.BlocksPerPlane; block++ {
		b := f.blocks.peek(base + block)
		if b == nil || !b.live || block == p.cursorBlock {
			continue
		}
		if b.valid < best {
			best = b.valid
			victim = block
		}
	}
	if victim < 0 {
		return GCWork{}, -1, fmt.Errorf("ssd: plane %v has no GC victim", p.addr)
	}
	moved, err := f.relocateValid(p, victim)
	if err != nil {
		return GCWork{}, -1, err
	}
	f.erase(p, victim)
	f.gcRuns++
	f.pagesRelocated += int64(moved)
	return GCWork{PagesRelocated: moved, Erases: 1}, victim, nil
}

// relocateValid moves a block's valid pages into the cursor chain, in
// page order: the order pages land on the cursor chain decides the
// post-GC physical layout (and thus every later read's timing). Write
// timestamps are preserved — relocation does not refresh retention
// age.
func (f *FTL) relocateValid(p *planeState, block int) (int, error) {
	b := f.block(p, block)
	if b.slots == 0 {
		return 0, nil // no valid data
	}
	moved := 0
	for _, s := range f.slotsOf(b) {
		if s.lpn == 0 {
			continue
		}
		if p.cursorBlock < 0 || p.cursorPage >= f.geo.PagesPerBlock {
			if len(p.freeBlocks) == 0 {
				return 0, fmt.Errorf("ssd: plane %v wedged during relocation", p.addr)
			}
			f.open(p)
		}
		f.place(p, int64(s.lpn-1), s.at)
		moved++
	}
	return moved, nil
}

// erase wipes a relocated block's FTL state and returns the block to
// the front of the free list, unless it has been retired. The caller
// counts the erase (noteErase).
func (f *FTL) erase(p *planeState, block int) {
	b := f.block(p, block)
	if b.slots != 0 {
		f.release(b)
	}
	b.valid = 0
	b.live = false
	if b.retired {
		return
	}
	p.freeBlocks = append(p.freeBlocks, 0)
	copy(p.freeBlocks[1:], p.freeBlocks)
	p.freeBlocks[0] = block
}

// ReclaimBlock migrates a specific write-region block's valid pages
// and erases it: the read-reclaim path. Unlike collect it does not
// pick a victim — the caller's disturb counter did — and it does not
// count into the GC statistics; it counts the erase as a reclaim
// erase. It returns zero work (no error) when the block is not
// reclaimable right now: never written, already retired, or no free
// block to migrate into; the caller's counter reset re-arms the
// threshold.
func (f *FTL) ReclaimBlock(a nand.Address) (GCWork, error) {
	p := &f.planes[f.planeIndexOfAddr(a)]
	b := f.blocks.peek(f.geo.BlockID(a))
	if a.Block < f.writeBase || b == nil || !b.live || b.retired || len(p.freeBlocks) == 0 {
		return GCWork{}, nil
	}
	if a.Block == p.cursorBlock {
		// Reclaiming the open block: close the cursor first so its
		// pages do not relocate onto themselves.
		p.cursorBlock = -1
	}
	moved, err := f.relocateValid(p, a.Block)
	if err != nil {
		return GCWork{}, err
	}
	f.erase(p, a.Block)
	b.noteErase()
	b.reclaimErases++
	return GCWork{PagesRelocated: moved, Erases: 1}, nil
}

// WriteBase reports the first block index of the write region: blocks
// below it hold the immutable pre-fill image.
func (f *FTL) WriteBase() int { return f.writeBase }

// popFreeBlock takes a block from the plane's free list: the
// least-erased one (dynamic wear leveling), preferring the list's last
// entry, then its first, on a tie. It reads wear without making a
// record: a block never opened has none and no wear.
func (f *FTL) popFreeBlock(p *planeState) int {
	base := p.idx * f.geo.BlocksPerPlane
	idx := len(p.freeBlocks) - 1
	best := f.blocks.erasesOf(base + p.freeBlocks[idx])
	for i, b := range p.freeBlocks[:idx] {
		if w := f.blocks.erasesOf(base + b); w < best {
			best = w
			idx = i
		}
	}
	block := p.freeBlocks[idx]
	p.freeBlocks = append(p.freeBlocks[:idx], p.freeBlocks[idx+1:]...)
	return block
}

// FreeBlocks reports a plane's free-block count (for tests).
func (f *FTL) FreeBlocks(planeIdx int) int {
	p := &f.planes[planeIdx]
	if p.freeBlocks == nil {
		return f.geo.BlocksPerPlane - f.writeBase
	}
	return len(p.freeBlocks)
}

// PlaneCount reports the number of planes.
func (f *FTL) PlaneCount() int { return len(f.planes) }

// PlaneIndexOf exposes the striping for tests and the request
// splitter.
func (f *FTL) PlaneIndexOf(lpn int64) int { return f.planeIndex(lpn) }

// GCStats reports cumulative GC activity.
func (f *FTL) GCStats() (runs, relocated int64) { return f.gcRuns, f.pagesRelocated }
