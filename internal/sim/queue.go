package sim

// CallQueue is an amortized-O(1) FIFO of continuations. The MSHR-stall
// paths park blocked requests here. Pops advance a head index and the
// backing array is reused once drained, so steady-state park/release
// cycles allocate nothing.
type CallQueue struct {
	calls []Call
	head  int
}

// Len returns the number of queued continuations.
func (q *CallQueue) Len() int { return len(q.calls) - q.head }

// Push appends c to the queue.
func (q *CallQueue) Push(c Call) {
	if q.head == len(q.calls) && q.head != 0 {
		// Fully drained: rewind so the backing array is reused.
		q.calls = q.calls[:0]
		q.head = 0
	}
	q.calls = append(q.calls, c)
}

// Pop removes and returns the oldest continuation, or the zero Call if
// the queue is empty.
func (q *CallQueue) Pop() Call {
	if q.head == len(q.calls) {
		return Call{}
	}
	c := q.calls[q.head]
	q.calls[q.head] = Call{} // release for GC
	q.head++
	if q.head == len(q.calls) {
		q.calls = q.calls[:0]
		q.head = 0
	}
	return c
}
