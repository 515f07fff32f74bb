package sim

// CallQueue is a FIFO of continuations. The MSHR-stall paths park
// blocked requests here. It is a power-of-two ring that grows only when
// full, so its capacity tracks peak occupancy (at most twice it, or the
// 16-entry minimum) however pushes and pops interleave, and steady-state
// park/release cycles allocate nothing.
type CallQueue struct {
	ring []Call // len is zero or a power of two
	head int    // index of the oldest entry
	n    int
}

// Len returns the number of queued continuations.
func (q *CallQueue) Len() int { return q.n }

// Push appends c to the queue.
//
//simlint:hotpath
func (q *CallQueue) Push(c Call) {
	if q.n == len(q.ring) {
		q.grow()
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = c
	q.n++
}

// grow doubles the ring, unwrapping its entries to start at index 0. It
// stays out of line so Push keeps the allocation out of its body.
//
//go:noinline
func (q *CallQueue) grow() {
	size := 2 * len(q.ring)
	if size == 0 {
		size = 16
	}
	ring := make([]Call, size)
	k := copy(ring, q.ring[q.head:])
	copy(ring[k:], q.ring[:q.head])
	q.ring, q.head = ring, 0
}

// Pop removes and returns the oldest continuation, or the zero Call if
// the queue is empty.
//
//simlint:hotpath
func (q *CallQueue) Pop() Call {
	if q.n == 0 {
		return Call{}
	}
	c := q.ring[q.head]
	q.ring[q.head] = Call{} // release for GC
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return c
}
