package sim

import "testing"

// TestCallQueueBoundedWithoutDrain interleaves pushes and pops so the
// queue never empties, the pattern of an MSHR park queue under sustained
// pressure. Order must stay FIFO, capacity must track peak occupancy
// rather than total pushes, and the steady state must not allocate.
func TestCallQueueBoundedWithoutDrain(t *testing.T) {
	var q CallQueue
	next, want := uint64(0), uint64(0)
	push := func() {
		q.Push(Call{Arg: next})
		next++
	}
	pop := func() {
		if got := q.Pop().Arg; got != want {
			t.Fatalf("popped %d, want %d (FIFO order broken)", got, want)
		}
		want++
	}
	peak := 0
	// Ramp to a backlog, then hold it between 700 and 1000 entries for
	// many rounds: the ring wraps repeatedly without ever draining.
	for q.Len() < 1000 {
		push()
		push()
		pop()
		peak = max(peak, q.Len())
	}
	for round := 0; round < 50; round++ {
		for q.Len() > 700 {
			pop()
		}
		for q.Len() < 1000 {
			push()
			peak = max(peak, q.Len())
		}
	}
	if c := len(q.ring); c > 2*peak {
		t.Fatalf("capacity %d after %d pushes exceeds twice the peak occupancy %d", c, next, peak)
	}
	cycle := func() {
		for k := 0; k < 300; k++ {
			pop()
			push()
		}
	}
	if got := testing.AllocsPerRun(20, cycle); got != 0 {
		t.Fatalf("steady-state park/release allocates: %.1f allocs per cycle", got)
	}
	for q.Len() > 0 {
		pop()
	}
	if want != next {
		t.Fatalf("drained %d of %d pushed calls", want, next)
	}
	if !q.Pop().IsZero() {
		t.Fatal("Pop on an empty queue returned a call")
	}
}
