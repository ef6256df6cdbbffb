package ssd

import (
	"fmt"

	"repro/internal/sim"
)

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

	// Observability: immediate admissions vs back-pressured ones, and
	// the occupancy high-water mark.
	hits      int64
	stalls    int64
	inUseHigh int
}

type cacheWaiter struct {
	pages int
	fn    sim.Handler
}

// acquire grants pages slots, firing fn immediately if room exists
// or queueing FIFO otherwise. Requests larger than the whole cache
// are granted alone when the cache drains completely.
func (c *writeCache) acquire(pages int, fn sim.Handler) {
	if c.admissible(pages) && c.waiters.len() == 0 {
		c.hits++
		c.inUse += pages
		if c.inUse > c.inUseHigh {
			c.inUseHigh = c.inUse
		}
		fn.Fire()
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
// A release below zero is an accounting bug: the count is clamped and
// the error returned, for the run to surface in its result rather than
// panic mid-simulation.
func (c *writeCache) release(pages int) error {
	var err error
	c.inUse -= pages
	if c.inUse < 0 {
		err = fmt.Errorf("ssd: write cache released below zero (%d pages over)", -c.inUse)
		c.inUse = 0
	}
	for c.waiters.len() > 0 {
		w := c.waiters.peek()
		if !c.admissible(w.pages) {
			break
		}
		c.waiters.pop()
		c.inUse += w.pages
		if c.inUse > c.inUseHigh {
			c.inUseHigh = c.inUse
		}
		w.fn.Fire()
	}
	return err
}

// idle reports whether nothing is buffered or waiting.
func (c *writeCache) idle() bool { return c.inUse == 0 && c.waiters.len() == 0 }
