package ssd

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestRecordSlabFillsItsPages pins recordsMax to the most records that
// fit the six 8-KiB pages a 768-record slab is rounded up to: a larger
// slab would take a seventh page, a smaller one strands bytes.
func TestRecordSlabFillsItsPages(t *testing.T) {
	const pages = 6 << 13
	rec := int(unsafe.Sizeof(blockState{}))
	if 768*rec <= 32<<10 || recordsMax*rec > pages || (recordsMax+1)*rec <= pages {
		t.Errorf("recordsMax %d of %d-byte records; want the most that fit %d bytes", recordsMax, rec, pages)
	}
}

// madeChunks counts the block-table chunks a device has made.
func madeChunks(s *SSD) int { return len(s.ftl.blocks.chunks) - s.ftl.blocks.unmade }

// TestBlockTableMatchesDense drives a block table and a dense slice of
// records with the same random calls: every read agrees with the dense
// record, read-only calls make no record and no chunk, the table makes
// one record per block written through at and one chunk per chunk of
// them, and a pointer at returned stays the block's record through
// every later call, record slabs refilled included. 1,000 blocks leave
// the last chunk short; up to 3,000 calls cross every record slab size.
func TestBlockTableMatchesDense(t *testing.T) {
	const blocks = 1000
	prop := func(ops []uint32) bool {
		tab := newBlockTable(blocks)
		dense := make([]blockState, blocks)
		held := map[int]*blockState{}
		chunks := map[int]bool{}
		for _, op := range ops {
			bid := int(op>>3) % blocks
			want := dense[bid]
			madeC, madeR := tab.unmade, tab.unmadeRecs
			readOnly := true
			switch op % 8 {
			case 0, 1, 2:
				b := tab.at(bid)
				if p, ok := held[bid]; ok && p != b {
					t.Errorf("block %d: at moved the record from %p to %p", bid, p, b)
					return false
				}
				held[bid], chunks[bid/blockChunk] = b, true
				switch op >> 20 % 4 {
				case 0:
					b.reads = int64(op)
				case 1:
					b.noteErase()
				case 2:
					b.retired = !b.retired
				case 3:
					b.valid = int32(op >> 8)
				}
				dense[bid] = *b
				readOnly = false
			case 3:
				b := tab.peek(bid)
				if _, ok := held[bid]; ok != (b != nil) || b != nil && *b != want {
					t.Errorf("block %d: peek %v, dense %+v", bid, b, want)
					return false
				}
			case 4:
				if got := tab.get(bid); got != want {
					t.Errorf("block %d: get %+v, dense %+v", bid, got, want)
					return false
				}
			case 5:
				if got := tab.erasesOf(bid); got != want.erases {
					t.Errorf("block %d: erasesOf %d, dense %d", bid, got, want.erases)
					return false
				}
			case 6:
				if got := tab.retired(bid); got != want.retired {
					t.Errorf("block %d: retired %v, dense %v", bid, got, want.retired)
					return false
				}
			case 7:
				tab.clearReads(bid)
				dense[bid].reads = 0
				if got := tab.get(bid); got != dense[bid] {
					t.Errorf("block %d: after clearReads %+v, dense %+v", bid, got, dense[bid])
					return false
				}
			}
			if readOnly && (tab.unmade != madeC || tab.unmadeRecs != madeR) {
				t.Errorf("read-only call %d on block %d made %d chunks and %d records", op%8, bid, madeC-tab.unmade, madeR-tab.unmadeRecs)
				return false
			}
		}
		if made := len(tab.chunks) - tab.unmade; made != len(chunks) {
			t.Errorf("made %d chunks for %d touched", made, len(chunks))
			return false
		}
		if made := blocks - tab.unmadeRecs; made != len(held) {
			t.Errorf("made %d records for %d blocks touched", made, len(held))
			return false
		}
		for bid, p := range held {
			if p != tab.at(bid) || *p != dense[bid] {
				t.Errorf("block %d: held record %+v at %p, table %p, dense %+v", bid, *p, p, tab.at(bid), dense[bid])
				return false
			}
		}
		for bid := range dense {
			if tab.get(bid) != dense[bid] {
				t.Errorf("block %d: table %+v, dense %+v", bid, tab.get(bid), dense[bid])
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 100,
		Rand:     rand.New(rand.NewSource(1)),
		Values: func(v []reflect.Value, r *rand.Rand) {
			ops := make([]uint32, 1+r.Intn(3000))
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

// TestUntouchedBlocksReadZero: a fresh device has made no chunk and
// reports every counter zero; after a run, BlockState still reports
// zero for every block whose record was never made, and the run made
// chunks for only a few percent of the device.
func TestUntouchedBlocksReadZero(t *testing.T) {
	s, err := New(benchConfig(RiF, 2000), allocStubWorkload{})
	if err != nil {
		t.Fatal(err)
	}
	if n := madeChunks(s); n != 0 {
		t.Fatalf("fresh device made %d chunks", n)
	}
	for i, r := range s.BlockState().Senses {
		if r != 0 {
			t.Fatalf("fresh device block %d senses %d", i, r)
		}
	}
	s, err = New(benchConfig(RiF, 2000), smallWorkload(t, "Ali124", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(200); err != nil {
		t.Fatal(err)
	}
	made := madeChunks(s)
	if made == 0 || made > len(s.ftl.blocks.chunks)/4 {
		t.Fatalf("200 requests made %d of %d chunks", made, len(s.ftl.blocks.chunks))
	}
	c := s.BlockState()
	sensed := 0
	for i := range c.Senses {
		if s.ftl.blocks.peek(i) == nil {
			if c.Reads[i] != 0 || c.Senses[i] != 0 || c.Erases[i] != 0 || c.ReclaimErases[i] != 0 {
				t.Fatalf("block %d has no record but reports %d/%d/%d/%d", i, c.Reads[i], c.Senses[i], c.Erases[i], c.ReclaimErases[i])
			}
			continue
		}
		if c.Senses[i] > 0 {
			sensed++
		}
	}
	if sensed == 0 {
		t.Fatal("no sensed block reported")
	}
}

// TestSeedBlockStateRoundTrip: seeded counters come back through
// BlockState, and zero entries make no record and no chunk.
func TestSeedBlockStateRoundTrip(t *testing.T) {
	s, err := New(benchConfig(RiF, 1000), allocStubWorkload{})
	if err != nil {
		t.Fatal(err)
	}
	n := s.cfg.Geometry.TotalBlocks()
	reads := make([]int64, n)
	erases := make([]int64, n)
	// Two blocks in one chunk, one in another, and an erase count in a
	// third; everything else zero.
	reads[3], reads[5], reads[blockChunk*40] = 11, 12, 13
	erases[n-1] = 7
	if err := s.SeedBlockState(reads, erases); err != nil {
		t.Fatal(err)
	}
	if got, recs := madeChunks(s), n-s.ftl.blocks.unmadeRecs; got != 3 || recs != 4 {
		t.Fatalf("seeding made %d chunks and %d records, want 3 and 4 (zero entries make none)", got, recs)
	}
	c := s.BlockState()
	for i := 0; i < n; i++ {
		if c.Reads[i] != reads[i] || c.Erases[i] != erases[i] {
			t.Fatalf("block %d round-trips reads %d erases %d, seeded %d and %d", i, c.Reads[i], c.Erases[i], reads[i], erases[i])
		}
	}
	// Reseeding with zeros clears the seeded counters without making
	// more chunks.
	if err := s.SeedBlockState(make([]int64, n), make([]int64, n)); err != nil {
		t.Fatal(err)
	}
	c = s.BlockState()
	if c.Reads[3] != 0 || c.Reads[blockChunk*40] != 0 || c.Erases[n-1] != 0 || madeChunks(s) != 3 || s.ftl.blocks.unmadeRecs != n-4 {
		t.Fatalf("zero reseed left reads %d/%d erases %d with %d chunks", c.Reads[3], c.Reads[blockChunk*40], c.Erases[n-1], madeChunks(s))
	}
}

// TestReadOnlyPathsMakeNoChunk: opening a block makes its record, but
// the free-list wear scan (every free block of a plane, at every block
// opening) and a dead die's disturb sweep only read the table, so they
// add no chunk to those of the opened blocks.
func TestReadOnlyPathsMakeNoChunk(t *testing.T) {
	s, err := New(benchConfig(RiF, 1000), allocStubWorkload{})
	if err != nil {
		t.Fatal(err)
	}
	// Enough writes to open a block on every plane, each opening
	// scanning its plane's whole free list.
	for lpn := int64(0); lpn < 4096; lpn++ {
		if _, _, err := s.ftl.Write(lpn, 0, s.cfg.GCFreeBlockLow); err != nil {
			t.Fatal(err)
		}
	}
	opened := map[int]bool{}
	for bid := 0; bid < s.cfg.Geometry.TotalBlocks(); bid++ {
		if b := s.ftl.blocks.peek(bid); b != nil && b.live {
			opened[bid/blockChunk] = true
		}
	}
	if n := madeChunks(s); n != len(opened) || n == 0 {
		t.Fatalf("writes made %d chunks, %d of them holding opened blocks", n, len(opened))
	}
	s.noteDeadDie(0)
	s.noteDeadDie(1)
	if n := madeChunks(s); n != len(opened) {
		t.Fatalf("dead-die sweeps made %d chunks", n-len(opened))
	}
}

// TestNewAllocationBudget pins what building a device costs: the
// per-block table is sparse, a plane's free blocks are a cursor until
// it erases one, and queues take their first buffers on first use, so
// a build allocates what its stations and tables need rather than a
// record per block. The stations are held by value, one slice per kind,
// so it makes 20 allocations, under -race too; the budget leaves 7%.
func TestNewAllocationBudget(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      Config
		maxBytes uint64
	}{
		{"shrunk Fig. 17", benchConfig(RiF, 1000), 128 << 10},
		{"Table I", DefaultConfig(RiF, 1000), 1 << 20},
	} {
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := New(tc.cfg, allocStubWorkload{}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		allocs := (after.Mallocs - before.Mallocs) / runs
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %d blocks, %d allocations, %d bytes per build", tc.name, tc.cfg.Geometry.TotalBlocks(), allocs, bytes)
		if allocs > 21 {
			t.Errorf("%s: New makes %d allocations, want at most 21", tc.name, allocs)
		}
		if bytes > tc.maxBytes {
			t.Errorf("%s: New allocates %d bytes, want at most %d", tc.name, bytes, tc.maxBytes)
		}
	}
}

// TestWarmupAllocationBudget pins what a fresh device's first requests
// cost: at queue depth 256 each request in flight needs host-request
// and die-command records that no earlier request has freed, so the
// first 256 closed-loop requests fill the pools. Records and their
// scratch are carved from slabs, each die command is its own
// continuation, stations queue values in rings whose first buffers
// come from per-device slabs, and a block's page slots come in chunks
// as it fills. Ali124 (96% reads) makes about 300 allocations (500
// under -race), 130 of them slabs of die-command and request records
// and their scratch; a record allocated per command and per station
// operation would make about 4,300. Ali2 (27% reads) builds a flush
// backlog, so it also pins the write path's warm-up: the write cache's
// waiters and the flush pool, which doubles as the backlog sets new
// high-water marks. Each budget leaves 7% over the -race count.
func TestWarmupAllocationBudget(t *testing.T) {
	const requests = 256
	for _, tc := range []struct {
		workload string
		budget   uint64
		// minPool is the flush-pool size the first run must reach:
		// past its first capacity when the case is to pin a backlog.
		minPool int
	}{
		{"Ali124", 532, 0},
		{"Ali2", 305, flushFirst + 1},
	} {
		cfg := benchConfig(RiF, 1000)
		var before, after runtime.MemStats
		var allocs uint64
		const runs = 4
		for i := 0; i < runs; i++ {
			s, err := New(cfg, smallWorkload(t, tc.workload, uint64(i+1)))
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			if _, err := s.Run(requests); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			allocs += after.Mallocs - before.Mallocs
			if n := len(s.flushPool.nodes); i == 0 && n < tc.minPool {
				t.Fatalf("%s: the flush pool reached %d nodes, want at least %d", tc.workload, n, tc.minPool)
			}
		}
		allocs /= runs
		t.Logf("%s: first %d requests at queue depth %d: %d allocations", tc.workload, requests, cfg.QueueDepth, allocs)
		if allocs > tc.budget {
			t.Errorf("%s: a fresh device's first %d requests make %d allocations, want at most %d", tc.workload, requests, allocs, tc.budget)
		}
	}
}

// TestShortCellByteBudget pins what a short cell costs in bytes,
// device build included: 40 Ali124 requests at 2K P/E, the size of a
// chaos-study cell. Such a cell touches 155 blocks in 111 of the block
// table's 2,048 chunks. A table that made a chunk's 16 records at its
// first touch spent 131 KB on the table (305 KB a cell); one that makes
// each record at its block's first touch spends 44 KB (220 KB a cell,
// 222 KB under -race). The budget leaves 7% over the -race count.
func TestShortCellByteBudget(t *testing.T) {
	const (
		runs   = 4
		budget = 232 << 10
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		s, err := New(benchConfig(RiF, 2000), smallWorkload(t, "Ali124", 1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(40); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("40 Ali124 requests at 2K P/E: %d bytes per cell, build included", bytes)
	if bytes > budget {
		t.Errorf("a 40-request cell allocates %d bytes, want at most %d", bytes, budget)
	}
}
