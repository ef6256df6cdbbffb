package resultcache

import (
	"container/list"
	"sync"
)

// entryOverhead approximates the fixed per-entry bookkeeping cost
// (map slot, list element, key copy, slice headers) charged against
// the byte budget on top of the stored artifact bytes, so a cache
// full of tiny entries cannot balloon past its bound on overhead
// alone.
const entryOverhead = 256

// Entry is one completed job's cached artifacts: both are stored and
// replayed verbatim, which is what makes a hit byte-identical to the
// run that populated it (re-rendering would reorder the manifest's
// decoded config keys).
type Entry struct {
	// Report is the rendered text report.
	Report []byte
	// Runs is the manifest-collection JSON exactly as obs's manifest
	// encoder (Collection.JSON) rendered it.
	Runs []byte
	// Cells is the number of runs the collection holds, so a hit can
	// report grid size without re-parsing Runs.
	Cells int
}

// size is the entry's charge against the cache's byte budget.
func (e Entry) size() int64 {
	return int64(len(e.Report)) + int64(len(e.Runs)) + entryOverhead
}

// Stats is a point-in-time snapshot of cache occupancy. Hits and
// misses are counted by the caller, which sees each lookup's outcome.
type Stats struct {
	Evictions int64
	Entries   int
	Bytes     int64
}

// Cache is a bounded, concurrency-safe LRU keyed by content address.
// The bound is bytes, not entries: a handful of huge grid manifests
// and thousands of small ones are both held to the same budget,
// evicting least-recently-used entries as needed. An entry larger
// than the whole budget is simply not cached.
type Cache struct {
	mu        sync.Mutex
	max       int64
	bytes     int64
	ll        *list.List // front = most recently used
	items     map[Key]*list.Element
	evictions int64
}

// lruItem is what each list element stores.
type lruItem struct {
	key   Key
	entry Entry
}

// New returns a cache bounded to maxBytes of stored artifacts
// (plus fixed per-entry overhead). maxBytes <= 0 yields a cache that
// stores nothing — the disabled configuration — so callers need no nil
// checks.
func New(maxBytes int64) *Cache {
	return &Cache{
		max:   maxBytes,
		ll:    list.New(),
		items: make(map[Key]*list.Element),
	}
}

// Get returns the entry stored under k, marking it most recently
// used. The returned slices are shared with the cache: callers must
// treat them as read-only (rifserve only ever writes them to
// responses).
func (c *Cache) Get(k Key) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return Entry{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem).entry, true
}

// Put stores e under k, evicting least-recently-used entries until the
// byte budget holds. Storing under an existing key replaces the entry.
// Entries that cannot fit even an empty cache are dropped silently:
// the job still ran, it just will not be served from memory.
func (c *Cache) Put(k Key, e Entry) {
	sz := e.size()
	c.mu.Lock()
	defer c.mu.Unlock()
	if sz > c.max {
		return
	}
	if el, ok := c.items[k]; ok {
		it := el.Value.(*lruItem)
		c.bytes += sz - it.entry.size()
		it.entry = e
		c.ll.MoveToFront(el)
	} else {
		c.items[k] = c.ll.PushFront(&lruItem{key: k, entry: e})
		c.bytes += sz
	}
	for c.bytes > c.max {
		back := c.ll.Back()
		if back == nil {
			break
		}
		it := back.Value.(*lruItem)
		c.ll.Remove(back)
		delete(c.items, it.key)
		c.bytes -= it.entry.size()
		c.evictions++
	}
}

// Stats snapshots the cache's eviction count and occupancy.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Evictions: c.evictions,
		Entries:   len(c.items),
		Bytes:     c.bytes,
	}
}
