package ssd

// ring is a FIFO queue over a circular buffer. Popping from the front
// frees its slot for reuse, so a queue that keeps cycling allocates
// only while its depth sets a new high-water mark — unlike the
// `q = q[1:]` idiom, which strands the popped capacity and makes the
// next append reallocate. The buffer's length is always a power of two
// (ringFirst, then doubling), so positions wrap with a mask.
//
// A ring's first buffer is carved from slab, a per-device slab its
// owner shares among the rings of its kind, so a fresh device's queues
// cost one allocation per recordSlab of them rather than a few growths
// each. A ring without a slab makes its first buffer itself.
type ring[T any] struct {
	buf  []T
	head int
	n    int
	slab *[]T
}

// ringFirst is every ring's first capacity: the depth a short run's
// queues stay within (a 40-request chaos cell's die queues do). A
// deeper first buffer would save a long run a few doublings but cost
// every short run bytes its queues never use.
const ringFirst = 4

// ringSlabs are a device's slabs of first ring buffers, one per kind
// of queue a device holds many of: the dies' operation queues and the
// channels' job queues. The host link and write cache hold one ring
// each, which makes its own.
type ringSlabs struct {
	ops  []dieOp
	jobs []xferJob
}

// len reports the number of queued items.
func (q *ring[T]) len() int { return q.n }

// grow gives the ring its first buffer or doubles the buffer,
// unrolling the wrapped contents to the front.
func (q *ring[T]) grow() {
	var buf []T
	switch {
	case len(q.buf) > 0:
		//riflint:allow alloc -- ring growth: only when the queue depth outgrows a buffer the ring already filled
		buf = make([]T, 2*len(q.buf))
	case q.slab != nil:
		buf = carve(q.slab, ringFirst)
	default:
		//riflint:allow alloc -- first buffer of a ring without a slab: once per ring
		buf = make([]T, ringFirst)
	}
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}

// push appends v at the back.
func (q *ring[T]) push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// pushFront puts v at the head, ahead of everything queued.
func (q *ring[T]) pushFront(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = v
	q.n++
}

// peek returns the head without removing it; the queue must not be
// empty.
func (q *ring[T]) peek() T { return q.buf[q.head] }

// pop removes and returns the head; the queue must not be empty.
func (q *ring[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // drop the reference for the collector
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}
