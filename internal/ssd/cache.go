package ssd

import "fmt"

// writeCache is the controller's DRAM write buffer: a counting
// semaphore over page slots. A host write completes once its pages
// are buffered; the background flush (channel transfer + program)
// releases the slots when the data is durable. When the cache is
// full, new writes block until flushes drain — the same back-pressure
// a real device applies.
type writeCache struct {
	capacity int
	inUse    int
	waiters  ring[cacheWaiter]

	// fail receives accounting errors (a release below zero) so the
	// run can surface them in its result instead of panicking.
	fail func(error)

	// Observability: immediate admissions vs back-pressured ones, and
	// the occupancy high-water mark.
	hits      int64
	stalls    int64
	inUseHigh int
}

type cacheWaiter struct {
	pages int
	fn    resumer
}

func newWriteCache(pages int, fail func(error)) *writeCache {
	return &writeCache{capacity: pages, fail: fail}
}

// enabled reports whether the device has a cache at all.
func (c *writeCache) enabled() bool { return c.capacity > 0 }

// acquire grants pages slots, resuming fn immediately if room exists
// or queueing FIFO otherwise. Requests larger than the whole cache
// are granted alone when the cache drains completely.
func (c *writeCache) acquire(pages int, fn resumer) {
	if c.admissible(pages) && c.waiters.len() == 0 {
		c.hits++
		c.inUse += pages
		if c.inUse > c.inUseHigh {
			c.inUseHigh = c.inUse
		}
		fn.resume()
		return
	}
	c.stalls++
	c.waiters.push(cacheWaiter{pages: pages, fn: fn})
}

func (c *writeCache) admissible(pages int) bool {
	if pages >= c.capacity {
		return c.inUse == 0
	}
	return c.inUse+pages <= c.capacity
}

// release returns pages slots and admits as many waiters as now fit.
func (c *writeCache) release(pages int) {
	c.inUse -= pages
	if c.inUse < 0 {
		// Accounting bug: clamp and surface it through the run result
		// rather than panicking mid-simulation.
		if c.fail != nil {
			c.fail(fmt.Errorf("ssd: write cache released below zero (%d pages over)", -c.inUse))
		}
		c.inUse = 0
	}
	for c.waiters.len() > 0 {
		w := c.waiters.peek()
		if !c.admissible(w.pages) {
			return
		}
		c.waiters.pop()
		c.inUse += w.pages
		if c.inUse > c.inUseHigh {
			c.inUseHigh = c.inUse
		}
		w.fn.resume()
	}
}

// idle reports whether nothing is buffered or waiting.
func (c *writeCache) idle() bool { return c.inUse == 0 && c.waiters.len() == 0 }
