package resultcache

import (
	"bytes"
	"fmt"
	"testing"
)

// keyOf fabricates a distinct content address for cache tests.
func keyOf(i int) Key {
	var k Key
	k[0] = byte(i)
	k[1] = byte(i >> 8)
	return k
}

func entryOf(i, size int) Entry {
	return Entry{Report: bytes.Repeat([]byte{byte(i)}, size), Cells: i}
}

func TestCacheHitReturnsStoredBytes(t *testing.T) {
	c := New(1 << 20)
	e := Entry{Report: []byte("report"), Runs: []byte(`{"runs":[]}`), Cells: 3}
	c.Put(keyOf(1), e)
	got, ok := c.Get(keyOf(1))
	if !ok {
		t.Fatal("miss after Put")
	}
	if !bytes.Equal(got.Report, e.Report) || !bytes.Equal(got.Runs, e.Runs) || got.Cells != 3 {
		t.Fatalf("got %+v, want %+v", got, e)
	}
	if _, ok := c.Get(keyOf(2)); ok {
		t.Fatal("hit on a never-stored key")
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestCacheEvictsLRUByBytes fills the cache past its byte budget and
// checks the least-recently-used entries go first — including that a
// Get refreshes recency.
func TestCacheEvictsLRUByBytes(t *testing.T) {
	const sz = 1024
	// Budget for exactly 3 entries of sz payload + overhead.
	const budget = 3 * (sz + entryOverhead)
	c := New(budget)
	for i := 1; i <= 3; i++ {
		c.Put(keyOf(i), entryOf(i, sz))
	}
	// Touch 1 so 2 is now the LRU.
	if _, ok := c.Get(keyOf(1)); !ok {
		t.Fatal("entry 1 missing before eviction")
	}
	c.Put(keyOf(4), entryOf(4, sz))
	if _, ok := c.Get(keyOf(2)); ok {
		t.Fatal("LRU entry 2 survived eviction")
	}
	for _, i := range []int{1, 3, 4} {
		if _, ok := c.Get(keyOf(i)); !ok {
			t.Fatalf("entry %d evicted out of LRU order", i)
		}
	}
	s := c.Stats()
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	if s.Bytes > budget {
		t.Fatalf("bytes %d exceed budget %d", s.Bytes, budget)
	}
}

func TestCacheOversizedEntryNotStored(t *testing.T) {
	c := New(1024)
	c.Put(keyOf(1), entryOf(1, 4096))
	if _, ok := c.Get(keyOf(1)); ok {
		t.Fatal("entry larger than the whole budget was stored")
	}
	if got := c.Stats().Entries; got != 0 {
		t.Fatalf("len = %d", got)
	}
}

func TestCacheReplaceAdjustsBytes(t *testing.T) {
	c := New(1 << 20)
	c.Put(keyOf(1), entryOf(1, 100))
	before := c.Stats().Bytes
	c.Put(keyOf(1), entryOf(1, 300))
	s := c.Stats()
	if s.Entries != 1 {
		t.Fatalf("entries = %d after replace", s.Entries)
	}
	if want := before + 200; s.Bytes != want {
		t.Fatalf("bytes = %d after replace, want %d", s.Bytes, want)
	}
}

func TestCacheDisabledStoresNothing(t *testing.T) {
	c := New(0)
	c.Put(keyOf(1), entryOf(1, 1))
	if _, ok := c.Get(keyOf(1)); ok {
		t.Fatal("disabled cache served a hit")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	const budget = 64 << 10
	c := New(budget)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				k := keyOf(g*1000 + i%10)
				c.Put(k, entryOf(i, 128))
				c.Get(k)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	s := c.Stats()
	if s.Bytes > budget {
		t.Fatalf("bytes %d exceed budget %d after concurrent churn", s.Bytes, budget)
	}
}

func TestKeyStringDistinct(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 16; i++ {
		s := keyOf(i).String()
		if seen[s] {
			t.Fatalf("duplicate key string %s", s)
		}
		seen[s] = true
	}
	if want := fmt.Sprintf("%064x", 0); len(keyOf(0).String()) != len(want) {
		t.Fatalf("key string length %d", len(keyOf(0).String()))
	}
}
