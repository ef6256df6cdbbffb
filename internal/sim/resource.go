package sim

// Resource models a capacity-limited station (a flash channel, a die,
// an ECC engine slot). Requests are granted FIFO. A grant callback runs
// synchronously when capacity becomes available; the holder must call
// Release exactly once per grant.
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	// waiters[whead:] queue FIFO; the consumed prefix is reclaimed
	// when the queue empties or the next push would grow it.
	waiters []Handler
	whead   int
	// free recycles Use's hold records.
	free []*hold

	// Busy-time accounting: busySince is valid while inUse > 0.
	busy      Time
	busySince Time
}

// NewResource creates a resource with the given grant capacity.
func NewResource(eng *Engine, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{eng: eng, name: name, capacity: capacity}
}

// Name reports the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// InUse reports the number of currently held grants.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen reports the number of waiting acquirers.
func (r *Resource) QueueLen() int { return len(r.waiters) - r.whead }

// Idle reports whether nothing holds or waits for the resource.
func (r *Resource) Idle() bool { return r.inUse == 0 && r.QueueLen() == 0 }

// Acquire requests one unit of capacity. If available, fn runs
// immediately; otherwise it is queued FIFO.
func (r *Resource) Acquire(fn Handler) {
	if r.inUse < r.capacity {
		r.grant(fn)
		return
	}
	if len(r.waiters) == cap(r.waiters) && r.whead > 0 {
		n := copy(r.waiters, r.waiters[r.whead:])
		clear(r.waiters[n:])
		r.waiters = r.waiters[:n]
		r.whead = 0
	}
	//riflint:allow alloc -- grows only when the waiter backlog sets a new high-water mark
	r.waiters = append(r.waiters, fn)
}

// TryAcquire requests one unit only if immediately available,
// reporting whether the grant happened.
func (r *Resource) TryAcquire(fn Handler) bool {
	if r.inUse < r.capacity {
		r.grant(fn)
		return true
	}
	return false
}

func (r *Resource) grant(fn Handler) {
	if r.inUse == 0 {
		r.busySince = r.eng.Now()
	}
	r.inUse++
	fn()
}

// Release returns one unit of capacity and hands it to the next waiter,
// if any. The waiter's callback runs synchronously.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	r.inUse--
	if r.inUse == 0 {
		r.busy += r.eng.Now() - r.busySince
	}
	if r.QueueLen() > 0 {
		next := r.waiters[r.whead]
		r.waiters[r.whead] = nil
		r.whead++
		if r.whead == len(r.waiters) {
			r.waiters = r.waiters[:0]
			r.whead = 0
		}
		r.grant(next)
	}
}

// BusyTime reports the cumulative time during which at least one grant
// was held, up to the current clock.
func (r *Resource) BusyTime() Time {
	b := r.busy
	if r.inUse > 0 {
		b += r.eng.Now() - r.busySince
	}
	return b
}

// hold is one Use call: its duration and continuation, with the two
// handlers that run it bound once when the record is first allocated,
// so Use schedules without allocating in steady state.
type hold struct {
	r       *Resource
	d       Time
	done    Handler
	onGrant Handler
	onEnd   Handler
}

// granted starts the hold's timer.
func (h *hold) granted() { h.r.eng.After(h.d, h.onEnd) }

// end recycles the hold, releases the resource, then runs done.
//
//riflint:hotpath
func (h *hold) end() {
	r, done := h.r, h.done
	h.done = nil
	//riflint:allow alloc -- returns the hold to the free list, within the capacity Use vacated
	r.free = append(r.free, h)
	r.Release()
	if done != nil {
		done()
	}
}

// Use acquires the resource, holds it for d, then releases it. done, if
// non-nil, runs at release time after the release (so a chained stage
// can immediately acquire downstream resources).
//
//riflint:hotpath
func (r *Resource) Use(d Time, done Handler) {
	var h *hold
	if n := len(r.free); n > 0 {
		h = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		//riflint:allow alloc -- free-list refill: one hold per queue high-water slot, reused after
		h = &hold{r: r}
		h.onGrant = h.granted
		h.onEnd = h.end
	}
	h.d, h.done = d, done
	r.Acquire(h.onGrant)
}
