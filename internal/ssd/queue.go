package ssd

// ring is a FIFO queue over a circular buffer. Popping from the front
// frees its slot for reuse, so a queue that keeps cycling allocates
// only while its depth sets a new high-water mark — unlike the
// `q = q[1:]` idiom, which strands the popped capacity and makes the
// next append reallocate.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

// len reports the number of queued items.
func (q *ring[T]) len() int { return q.n }

// grow doubles the buffer, unrolling the wrapped contents to the front.
func (q *ring[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 4
	}
	//riflint:allow alloc -- ring growth: only when the queue depth sets a new high-water mark
	buf := make([]T, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = buf
	q.head = 0
}

// push appends v at the back.
func (q *ring[T]) push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
}

// pushFront puts v at the head, ahead of everything queued.
func (q *ring[T]) pushFront(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head + len(q.buf) - 1) % len(q.buf)
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
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v
}
