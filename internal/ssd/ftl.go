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
// Every table is made on first use: the forward map in chunks, a
// plane's list of erased blocks on the plane's first erase. Each
// block's state lives in the device's one per-block table (blocks),
// whose record a block gets on its first open. A block's page slots
// come in chunks, carved as its cursor reaches them, and are held only
// while it may hold valid data; released chunks are recycled through a
// pool, so memory follows the live data, not the blocks opened or the
// pages ever written. Once the pools are warm, a write allocates
// nothing, even one that collects garbage or migrates a block for
// read-reclaim.
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

	// slotSets holds every slot set made so far: a block's record
	// names its set by index plus one (slotsOf), and the set holds the
	// block's chunks in page order, nil past its cursor. spare lists the
	// emptied sets, those of no block holding valid data, and chunkPool
	// the cleared chunks, for the next block that opens or fills a
	// chunk. New sets are carved from setSlab, setLen pointers each,
	// and new chunks from chunkSlab.
	slotSets  [][]*slotChunk
	setLen    int
	spare     []int32
	chunkPool []*slotChunk
	setSlab   []*slotChunk
	chunkSlab []slotChunk

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

// planeState is one plane's allocator. Its free blocks are of two
// kinds. Blocks never opened since the device was built carry no wear
// (unless wear is seeded onto them), so they are taken lowest first by
// a cursor: none below nextUnused is one, and unused counts those at
// or above it, retired ones excluded. Blocks erased since are listed,
// most recently erased first, and taken by a wear scan.
type planeState struct {
	addr        nand.Address // channel/die/plane coordinates
	idx         int          // dense plane index
	cursorBlock int
	cursorPage  int
	nextUnused  int
	unused      int
	// listed holds the erased free blocks. Once wear is seeded onto a
	// never-opened block, the plane's never-opened blocks join the
	// list, highest first, and the scan weighs them too (listUnused).
	listed []int
}

// pageSlot is what one physical page holds.
type pageSlot struct {
	lpn uint32   // lpn + 1; 0 when the page holds no valid data
	at  sim.Time // the data's write time, kept across relocation
}

// A block's page slots come in chunks of slotChunkPages pages (256
// bytes): a Fig. 17 cell writes a few dozen pages per plane, so one
// to three chunks of an opened block's eight.
const (
	slotShift      = 4
	slotChunkPages = 1 << slotShift
	slotMask       = slotChunkPages - 1
)

type slotChunk [slotChunkPages]pageSlot

// NewFTL builds the translation layer for a geometry. Its page count
// must fit a uint32, as Config.Validate checks.
func NewFTL(geo nand.Geometry) *FTL {
	pages := int64(geo.TotalPages())
	f := &FTL{
		geo:       geo,
		writeBase: geo.BlocksPerPlane / 2,
		pages:     pages,
		blocks:    newBlockTable(geo.TotalBlocks()),
		setLen:    (geo.PagesPerBlock + slotMask) >> slotShift,
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
		p.nextUnused = f.writeBase
		p.unused = geo.BlocksPerPlane - f.writeBase
	}
	return f
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

// block returns the record of a plane's block, making it on first
// use.
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
	return p, b, block, page, f.slot(b, page)
}

// slotsOf returns a block's slot set: its chunks in page order, nil
// past the chunk its cursor has reached. The block must hold one: it
// is open or holds valid data.
func (f *FTL) slotsOf(b *blockState) []*slotChunk { return f.slotSets[b.slots-1] }

// slot returns the slot of a written page of a block that holds slots.
func (f *FTL) slot(b *blockState, page int) *pageSlot {
	return &f.slotsOf(b)[page>>slotShift][page&slotMask]
}

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
	if f.cursorFull(p) {
		victim := -1
		if p.free() <= gcLow {
			var err error
			if gc, victim, err = f.collect(p); err != nil {
				return nand.Address{}, GCWork{}, err
			}
		}
		// Relocating the victim's valid pages may have opened a block
		// with room left: the write goes there.
		if f.cursorFull(p) {
			if p.free() == 0 {
				return nand.Address{}, GCWork{}, fmt.Errorf("ssd: plane %v out of free blocks", p.addr)
			}
			f.open(p)
		}
		if victim >= 0 {
			// The victim's erase counts only now: any opening above
			// chose by wear with the victim at its pre-erase count.
			f.block(p, victim).noteErase()
		}
	}
	f.invalidate(lpn)
	return f.place(p, lpn, now), gc, nil
}

// cursorFull reports whether the plane has no open block with room.
func (f *FTL) cursorFull(p *planeState) bool {
	return p.cursorBlock < 0 || p.cursorPage >= f.geo.PagesPerBlock
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
		f.slotSets = append(f.slotSets, carve(&f.setSlab, f.setLen))
		b.slots = int32(len(f.slotSets))
	}
	b.live = true
}

// release clears a block's slot chunks into the pool and its emptied
// set into the spares: the block holds no valid data.
func (f *FTL) release(b *blockState) {
	set := f.slotsOf(b)
	for i, c := range set {
		if c == nil {
			break
		}
		clear(c[:])
		f.chunkPool = append(f.chunkPool, c)
		set[i] = nil
	}
	f.spare = append(f.spare, b.slots)
	b.slots = 0
}

// addChunk gives a block the slot chunk holding page, which its
// cursor has just reached: a cleared one from the pool, or one carved
// from the slab.
func (f *FTL) addChunk(b *blockState, page int) {
	var c *slotChunk
	if n := len(f.chunkPool); n > 0 {
		c = f.chunkPool[n-1]
		f.chunkPool = f.chunkPool[:n-1]
	} else {
		c = &carve(&f.chunkSlab, 1)[0]
	}
	f.slotsOf(b)[page>>slotShift] = c
}

// place programs lpn's data, written at time at, into the plane's
// cursor page and points the forward map at it.
func (f *FTL) place(p *planeState, lpn int64, at sim.Time) nand.Address {
	addr := p.addr
	addr.Block = p.cursorBlock
	addr.Page = p.cursorPage
	p.cursorPage++
	b := f.block(p, addr.Block)
	if addr.Page&slotMask == 0 {
		f.addChunk(b, addr.Page)
	}
	*f.slot(b, addr.Page) = pageSlot{lpn: uint32(lpn) + 1, at: at}
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
// removed from its plane's free blocks (if free) and will never be
// returned to them by garbage collection. Retirement erases the block,
// so its disturb counter clears.
func (f *FTL) RetireBlock(a nand.Address) {
	p := &f.planes[f.planeIndexOfAddr(a)]
	b := f.block(p, a.Block)
	if !b.retired && a.Block >= p.nextUnused {
		p.unused-- // the cursor over never-opened blocks skips it
	}
	b.retired = true
	b.reads = 0
	for i, b := range p.listed {
		if b == a.Block {
			p.listed = append(p.listed[:i], p.listed[i+1:]...)
			return
		}
	}
}

// blockRetired reports whether the block at a has been retired.
func (f *FTL) blockRetired(a nand.Address) bool { return f.blocks.retired(f.geo.BlockID(a)) }

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
	for _, c := range f.slotsOf(b) {
		if c == nil {
			break
		}
		for _, s := range c {
			if s.lpn == 0 {
				continue
			}
			if f.cursorFull(p) {
				if p.free() == 0 {
					return 0, fmt.Errorf("ssd: plane %v wedged during relocation", p.addr)
				}
				f.open(p)
			}
			f.place(p, int64(s.lpn-1), s.at)
			moved++
		}
	}
	return moved, nil
}

// erase wipes a relocated block's FTL state and returns the block to
// the front of the plane's list, unless it has been retired. The
// caller counts the erase (noteErase).
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
	p.listed = append(p.listed, 0)
	copy(p.listed[1:], p.listed)
	p.listed[0] = block
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
	if a.Block < f.writeBase || b == nil || !b.live || b.retired || p.free() == 0 {
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

// popFreeBlock takes one of the plane's free blocks: the least-erased
// one (dynamic wear leveling). A never-opened block carries no wear,
// so while one remains the lowest is taken. Otherwise the listed
// blocks are scanned, preferring the list's last entry, then its
// first, on a tie. This is the choice of one list holding the erased
// blocks, most recent first, and then the never-opened ones, highest
// first: its last entry is the lowest never-opened block, and no block
// is less worn. It reads wear without making a record.
func (f *FTL) popFreeBlock(p *planeState) int {
	base := p.idx * f.geo.BlocksPerPlane
	if p.unused > 0 {
		for f.blocks.retired(base + p.nextUnused) {
			p.nextUnused++
		}
		p.unused--
		p.nextUnused++
		return p.nextUnused - 1
	}
	idx := len(p.listed) - 1
	best := f.blocks.erasesOf(base + p.listed[idx])
	for i, b := range p.listed[:idx] {
		if w := f.blocks.erasesOf(base + b); w < best {
			best = w
			idx = i
		}
	}
	block := p.listed[idx]
	p.listed = append(p.listed[:idx], p.listed[idx+1:]...)
	return block
}

// listUnused moves the plane's never-opened blocks onto its list,
// highest first, behind the erased ones, so that the wear scan weighs
// them: it must once wear is seeded onto one of them.
func (f *FTL) listUnused(p *planeState) {
	base := p.idx * f.geo.BlocksPerPlane
	for b := f.geo.BlocksPerPlane - 1; b >= p.nextUnused; b-- {
		if !f.blocks.retired(base + b) {
			p.listed = append(p.listed, b)
		}
	}
	p.nextUnused = f.geo.BlocksPerPlane
	p.unused = 0
}

// seedErases sets block bid's erase count: SeedBlockState's wear.
// Wear seeded onto a never-opened block of the write region ends its
// plane's lowest-first shortcut (listUnused).
func (f *FTL) seedErases(bid int, erases int32) {
	p := &f.planes[bid/f.geo.BlocksPerPlane]
	if erases != 0 && bid%f.geo.BlocksPerPlane >= p.nextUnused {
		f.listUnused(p)
	}
	f.blocks.at(bid).erases = erases
}

// free reports the plane's free-block count.
func (p *planeState) free() int { return p.unused + len(p.listed) }

// FreeBlocks reports a plane's free-block count (for tests).
func (f *FTL) FreeBlocks(planeIdx int) int { return f.planes[planeIdx].free() }

// PlaneIndexOf exposes the striping for tests and the request
// splitter.
func (f *FTL) PlaneIndexOf(lpn int64) int { return f.planeIndex(lpn) }

// GCStats reports cumulative GC activity.
func (f *FTL) GCStats() (runs, relocated int64) { return f.gcRuns, f.pagesRelocated }
