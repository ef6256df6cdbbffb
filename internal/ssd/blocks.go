package ssd

import "repro/internal/sim"

// blockState is the device's one record of one physical block: its
// wear and disturb counters and, for a write-region block, the FTL's
// state of it.
type blockState struct {
	// reads is the disturb state: every real array sense bumps it via
	// noteSense, and an erase (GC victim, read-reclaim, retirement, die
	// death) clears it. senses counts the same senses but is never
	// cleared — the epoch fast-forward extrapolates from it. int64: a
	// drive-year on a hot-read trace strands an int32.
	reads  int64
	senses int64
	// refreshedAt is when read-reclaim last rewrote the block in place
	// (see refreshedInPlace).
	refreshedAt sim.Time
	// variation memoizes the NAND model's BlockVariation, filled on
	// the block's first read (0 until then: the multiplier is a
	// positive exponential). It lives in the device rather than the
	// model because models are shared across concurrent runs.
	variation float64
	// erases counts erases (wear on top of PECycles); reclaimErases is
	// the subset caused by read-reclaim. A block wears out within
	// thousands of erases, so int32 holds any count, as it does valid.
	erases        int32
	reclaimErases int32
	// slots names the FTL's slot-chunk set of the block (FTL.slotsOf)
	// by index plus one; 0 while the block holds no valid data. An
	// index rather than a slice keeps the record at 56 bytes: most
	// records are of blocks that are only read.
	slots int32
	valid int32 // slots holding valid data
	// live marks a block opened since its last erase: a GC candidate.
	live bool
	// retired marks a grown-bad block pulled from circulation.
	retired bool
}

// noteErase counts an erase of the block: one more erase of wear, and
// the disturb state clears.
func (b *blockState) noteErase() {
	b.erases++
	b.reads = 0
}

// refreshedInPlace reports whether read-reclaim has rewritten a
// pre-fill (cold) block in place, restarting its retention clock at
// refreshedAt. Pre-fill blocks are not FTL-managed: reclaim erases
// one only by refreshing it, so for them a reclaim erase is the mark.
func (b *blockState) refreshedInPlace() bool { return b.reclaimErases > 0 }

// The block table's shape. An index chunk maps 16 blocks to their
// records (128 bytes); one slab allocation carves 128 of them
// (16 KiB), about what a short run on the shrunk Fig. 17 geometry
// touches (a 40-request chaos cell makes 111 chunks, a 3,000-request
// one 240). Records come from slabs of their own, each twice the size
// of the one before, from recordsFirst (10.5 KiB) up to recordsMax: a
// 40-request cell makes 155 records from one slab, a 3,000-request one
// 1,136 from three. A slab past 32 KiB is a large object, which the
// runtime rounds up to whole 8-KiB pages, so recordsMax is the most
// records that fit the six pages (49,152 B) a 768-record slab already
// takes: 877 × 56 B = 49,112 B.
const (
	blockChunk   = 16
	slabChunks   = 128
	recordsFirst = 192
	recordsMax   = 877
)

// blockTable holds the per-block records of a device, by dense block
// id. A block's 56-byte record is made when the block is first sensed
// or opened; the 16-block index chunk that points at it is made with
// the chunk's first record. A run touches a few percent of a device's
// blocks, so the table costs what the run touches, not what the
// geometry holds. A missing record reads as all zero: read-only paths
// (peek, get, erasesOf, retired, clearReads) never make one, nor a
// chunk. Chunks and records are carved from per-device slabs, and a
// record never moves, so a pointer from at stays valid for the
// device's lifetime.
type blockTable struct {
	chunks []*[blockChunk]*blockState
	slab   [][blockChunk]*blockState
	recs   []blockState
	// unmade and unmadeRecs count the chunks and records not yet made,
	// so the last slabs are no larger than what the table can still
	// use. nextRecs is the size of the next record slab.
	unmade, unmadeRecs, nextRecs int
}

func newBlockTable(blocks int) blockTable {
	n := (blocks + blockChunk - 1) / blockChunk
	return blockTable{chunks: make([]*[blockChunk]*blockState, n), unmade: n, unmadeRecs: blocks, nextRecs: recordsFirst}
}

// at returns block bid's record for writing, making it (and its
// chunk) on first use.
func (t *blockTable) at(bid int) *blockState {
	if c := t.chunks[bid/blockChunk]; c != nil {
		if b := c[bid%blockChunk]; b != nil {
			return b
		}
	}
	return t.makeRecord(bid)
}

// makeRecord carves block bid's record from the record slab, making
// its chunk first if it has none, and refilling the slab when it runs
// out.
func (t *blockTable) makeRecord(bid int) *blockState {
	c := t.chunks[bid/blockChunk]
	if c == nil {
		c = t.makeChunk(bid / blockChunk)
	}
	if len(t.recs) == 0 {
		//riflint:allow alloc -- record slabs double up to recordsMax; a run touches a bounded set of blocks
		t.recs = make([]blockState, min(t.nextRecs, t.unmadeRecs))
		t.nextRecs = min(2*t.nextRecs, recordsMax)
	}
	b := &t.recs[0]
	t.recs = t.recs[1:]
	c[bid%blockChunk] = b
	t.unmadeRecs--
	return b
}

// makeChunk carves index chunk ci from the chunk slab, refilling the
// slab when it runs out.
func (t *blockTable) makeChunk(ci int) *[blockChunk]*blockState {
	if len(t.slab) == 0 {
		//riflint:allow alloc -- one slab per slabChunks first-touched chunks; a run touches a bounded set of blocks
		t.slab = make([][blockChunk]*blockState, min(slabChunks, t.unmade))
	}
	c := &t.slab[0]
	t.slab = t.slab[1:]
	t.chunks[ci] = c
	t.unmade--
	return c
}

// peek returns block bid's record, or nil while it is unmade (every
// counter of the block is then zero).
func (t *blockTable) peek(bid int) *blockState {
	if c := t.chunks[bid/blockChunk]; c != nil {
		return c[bid%blockChunk]
	}
	return nil
}

// get returns a copy of block bid's record: zero while it is unmade.
func (t *blockTable) get(bid int) blockState {
	if b := t.peek(bid); b != nil {
		return *b
	}
	return blockState{}
}

// erasesOf reports block bid's erase count: 0 while its record is
// unmade.
func (t *blockTable) erasesOf(bid int) int32 {
	if b := t.peek(bid); b != nil {
		return b.erases
	}
	return 0
}

// retired reports whether block bid is retired: false while its
// record is unmade.
func (t *blockTable) retired(bid int) bool {
	b := t.peek(bid)
	return b != nil && b.retired
}

// clearReads zeroes block bid's disturb counter (an erase) without
// making its record: an unmade record's counters are already zero.
func (t *blockTable) clearReads(bid int) {
	if b := t.peek(bid); b != nil {
		b.reads = 0
	}
}
