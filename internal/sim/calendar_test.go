package sim

import (
	"container/heap"
	"testing"
)

// refEvent and refHeap are a straightforward binary-heap scheduler
// ordered on (cycle, seq) — the specification the calendar queue must
// match event for event.
type refEvent struct {
	at  Cycle
	seq uint64
	id  int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// refScheduler mirrors the Engine's scheduling semantics with the
// reference heap: monotone clock, FIFO within a cycle via a global
// insertion sequence.
type refScheduler struct {
	now Cycle
	seq uint64
	evs refHeap
}

func (r *refScheduler) schedule(delay Cycle, id int) {
	heap.Push(&r.evs, refEvent{at: r.now + delay, seq: r.seq, id: id})
	r.seq++
}

func (r *refScheduler) step() (int, bool) {
	if r.evs.Len() == 0 {
		return 0, false
	}
	ev := heap.Pop(&r.evs).(refEvent)
	r.now = ev.at
	return ev.id, true
}

// xorshift is the test's deterministic stream generator (no math/rand:
// the simlint detrand check bans it in this tree, and a fixed generator
// keeps failures reproducible from the printed seed alone).
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

// TestCalendarMatchesReferenceHeap drives the calendar-queue engine and
// the reference heap with identical seeded event streams — delays on
// both sides of the ring/overflow boundary, same-cycle bursts,
// execute-time rescheduling, typed handler calls interleaved with
// closure calls through the arena and the overflow heap — and requires
// the dispatch order to match exactly. This is the ordering contract every determinism guarantee in
// the tree (PDES windows, checkpoint replay, golden figures) sits on.
func TestCalendarMatchesReferenceHeap(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 0xdeadbeef, 1 << 40} {
		rng := xorshift(seed)
		eng := &Engine{}
		ref := &refScheduler{}
		var engOrder, refOrder []int

		// Delay mix: mostly inside the 4096-cycle ring, a tail far
		// beyond it to keep the overflow heap and its migration active,
		// and frequent repeats of the same cycle to exercise FIFO order.
		delay := func() Cycle {
			switch r := rng.next() % 10; {
			case r < 4:
				return Cycle(rng.next() % 8) // bursty: same/near cycles
			case r < 8:
				return Cycle(rng.next() % 4096) // inside the ring
			default:
				return Cycle(4096 + rng.next()%100000) // overflow heap
			}
		}

		// Typed calls carry their id in Arg through one shared handler;
		// closure calls capture it. Both kinds share the arena and heap.
		record := func(evID uint64) { engOrder = append(engOrder, int(evID)) }
		id := 0
		post := func(d Cycle) {
			evID := id
			id++
			if rng.next()%2 == 0 {
				eng.ScheduleCall(d, Call{H: record, Arg: uint64(evID)})
			} else {
				eng.Schedule(d, func() { engOrder = append(engOrder, evID) })
			}
			ref.schedule(d, evID)
		}

		for i := 0; i < 5000; i++ {
			post(delay())
			// Interleave dispatch with scheduling so the clock advances
			// and relative delays land on a moving base.
			if rng.next()%3 == 0 {
				if eng.Step() {
					refID, ok := ref.step()
					if !ok {
						t.Fatalf("seed %d: reference empty while engine stepped", seed)
					}
					refOrder = append(refOrder, refID)
				}
			}
		}
		for eng.Step() {
			refID, ok := ref.step()
			if !ok {
				t.Fatalf("seed %d: reference drained before engine", seed)
			}
			refOrder = append(refOrder, refID)
		}
		if _, ok := ref.step(); ok {
			t.Fatalf("seed %d: engine drained before reference", seed)
		}
		if len(engOrder) != len(refOrder) {
			t.Fatalf("seed %d: dispatched %d events, reference %d", seed, len(engOrder), len(refOrder))
		}
		for i := range engOrder {
			if engOrder[i] != refOrder[i] {
				t.Fatalf("seed %d: dispatch %d: engine ran event %d, reference %d",
					seed, i, engOrder[i], refOrder[i])
			}
		}
		if eng.Now() != ref.now {
			t.Fatalf("seed %d: engine at cycle %d, reference at %d", seed, eng.Now(), ref.now)
		}
	}
}

// TestCalendarRescheduleDuringDispatch covers the hazard the migration
// proof leans on: events executing at cycle X scheduling new work both
// at X (same-cycle FIFO) and far past the ring, while the overflow heap
// is migrating entries for nearby slots.
func TestCalendarRescheduleDuringDispatch(t *testing.T) {
	rng := xorshift(99)
	eng := &Engine{}
	ref := &refScheduler{}
	var engOrder, refOrder []int

	// Every dispatched event with id divisible by 3 schedules one child
	// at delay id%5000 and one at delay 0 (same-cycle FIFO). Both sides
	// derive child ids from the parent id, so no shared state is needed.
	childID := func(parent, k int) int { return 1_000_000 + parent*2 + k }
	schedChildren := func(parent int) {
		if parent%3 != 0 || parent >= 1_000_000 {
			return
		}
		eng.Schedule(Cycle(parent%5000), func() { engOrder = append(engOrder, childID(parent, 0)) })
		eng.Schedule(0, func() { engOrder = append(engOrder, childID(parent, 1)) })
	}

	for i := 0; i < 3000; i++ {
		evID := i
		d := Cycle(rng.next() % 9000)
		eng.Schedule(d, func() {
			engOrder = append(engOrder, evID)
			schedChildren(evID)
		})
		ref.schedule(d, evID)
	}
	for eng.Step() {
	}
	// Replay the reference with the same child rule.
	for {
		evID, ok := ref.step()
		if !ok {
			break
		}
		refOrder = append(refOrder, evID)
		if evID%3 == 0 && evID < 1_000_000 {
			ref.schedule(Cycle(evID%5000), childID(evID, 0))
			ref.schedule(0, childID(evID, 1))
		}
	}
	if len(engOrder) != len(refOrder) {
		t.Fatalf("dispatched %d events, reference %d", len(engOrder), len(refOrder))
	}
	for i := range engOrder {
		if engOrder[i] != refOrder[i] {
			t.Fatalf("dispatch %d: engine ran event %d, reference %d", i, engOrder[i], refOrder[i])
		}
	}
}

// TestEventLoopSteadyStateZeroAllocs pins the pooled-event invariant: a
// warmed engine's schedule+dispatch cycle performs no heap allocation,
// for typed handler calls and for pre-built closures alike. A failure
// here means someone reintroduced a per-event allocation on the hot path
// (see DESIGN.md §10).
func TestEventLoopSteadyStateZeroAllocs(t *testing.T) {
	const ops = 4096
	eng := &Engine{}
	rng := xorshift(5)
	// Deterministic warm-up: one event in every ring bucket (so the
	// arena holds a node per slot) plus a far event to size the overflow
	// heap, all drained before counting. Steady state never holds more
	// events at once than this, so nothing can grow later.
	for s := Cycle(0); s < ringSize; s++ {
		eng.Schedule(s, sinkFn)
	}
	eng.Schedule(ringSize+1000, sinkFn)
	for eng.Step() {
	}
	arena := len(eng.nodes)
	batch := func() {
		for i := 0; i < ops; i++ {
			if i%2 == 0 {
				eng.ScheduleCall(Cycle(rng.next()%6000), Call{H: sinkH, Arg: uint64(i)})
			} else {
				eng.Schedule(Cycle(rng.next()%6000), sinkFn)
			}
			eng.Step()
		}
	}
	if got := testing.AllocsPerRun(10, batch); got != 0 {
		t.Fatalf("event loop allocates in steady state: %.1f allocs per %d-op batch", got, ops)
	}
	if len(eng.nodes) != arena {
		t.Fatalf("arena grew from %d to %d nodes in steady state", arena, len(eng.nodes))
	}
}

// TestArenaReusesFreedNodes checks the shared arena's free list: however
// many events pass through, the slab only grows to the peak number of
// events queued in the ring at once.
func TestArenaReusesFreedNodes(t *testing.T) {
	eng := &Engine{}
	const live = 64
	for round := 0; round < 100; round++ {
		for i := 0; i < live; i++ {
			eng.ScheduleCall(Cycle(i%7), Call{H: sinkH})
		}
		for eng.Step() {
		}
	}
	if got := len(eng.nodes); got != live+1 { // +1: the sentinel
		t.Fatalf("arena holds %d nodes after 100 rounds of %d events, want %d", got, live, live+1)
	}
}

// sinkFn is a top-level event body so scheduling it allocates no closure.
func sinkFn() {}

// sinkH is sinkFn as a typed handler.
func sinkH(uint64) {}

// BenchmarkEventLoop measures raw scheduler throughput and reports its
// allocation rate (0 allocs/op in steady state).
func BenchmarkEventLoop(b *testing.B) {
	eng := &Engine{}
	rng := xorshift(11)
	for i := 0; i < 4096; i++ { // warm-up: grow pools before timing
		eng.ScheduleCall(Cycle(rng.next()%6000), Call{H: sinkH})
		eng.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ScheduleCall(Cycle(rng.next()%6000), Call{H: sinkH, Arg: uint64(i)})
		eng.Step()
	}
}
