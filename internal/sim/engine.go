// Package sim provides the discrete-event simulation kernel shared by the
// GPU model and the secure-memory engines: a deterministic event queue
// keyed by cycle, with FIFO ordering among events scheduled for the same
// cycle.
//
// Model components express time by scheduling typed continuations. A
// Call is either a handler bound once at construction plus a uint64
// argument — by convention the index of a request record in a per-shard
// Pool, which carries the request's state between hops — or a plain
// closure, kept for cold sites such as the checkpoint drain and for
// messages that must carry data by value to another shard. The miss
// paths therefore queue, mail and dispatch events without allocating.
//
// Queued events live in one shared arena per Engine: a free-listed slab
// of nodes, each bucket of the calendar queue an intrusive FIFO list
// through it. Request-record pools are owned by exactly one shard and
// are empty whenever the simulation is quiescent; snapshots assert it,
// since a live record would be in-flight state the codec does not carry.
//
// Each Engine is single-threaded by design — determinism matters more
// than parallel speed for reproducing the paper's figures, and runs are
// repeatable bit-for-bit for a given seed. For parallel execution the
// Cluster type (shard.go) advances several Engines in lockstep windows
// with deterministic cross-engine message delivery, so sharded runs stay
// bit-identical to single-threaded ones.
package sim

import "math/bits"

// Cycle is a point in simulated time, in core clock cycles.
type Cycle uint64

// Call is a typed event continuation. H, when set, is a handler bound
// once at construction and Arg its argument (usually a request-record
// index); otherwise Fn, a closure, runs. Handlers and record indices
// make a continuation a plain value, so scheduling one never allocates.
// The zero Call means "no continuation".
type Call struct {
	H   func(uint64)
	Arg uint64
	Fn  func()
}

// IsZero reports whether c carries no continuation.
func (c Call) IsZero() bool { return c.H == nil && c.Fn == nil }

// Run invokes the continuation.
func (c Call) Run() {
	if c.H != nil {
		c.H(c.Arg)
		return
	}
	c.Fn()
}

// The queue is a calendar (bucket) queue: a ring of per-cycle buckets
// covering the window [now, now+ringSize) absorbs the overwhelming
// majority of events (cache latencies, DRAM service times, crossbar hops
// are all far below ringSize), giving O(1) schedule and dispatch with no
// per-event allocation. Events beyond the window (deep DRAM bus backlog)
// go to a small inline overflow heap and migrate into the ring as time
// advances.
//
// The buckets share one arena: nodes is a slab of queued calls, node 0
// a sentinel so that a zero index means "none", and each bucket is a
// (head, tail) FIFO list threaded through the nodes' next links.
// Dispatched nodes go on a free list and are reused, so the slab grows
// only to the peak number of events in the ring at once — per-bucket
// slices would instead keep 4096 backing arrays, each sized for its own
// worst cycle.
//
// Ordering invariant: dispatch is strictly (cycle, seq) — seq is the
// global monotone schedule order, so same-cycle events run FIFO. The
// overflow heap pops in (at, seq) order, and every heap event for a cycle
// X was scheduled while now ≤ X−ringSize, whereas every ring append for X
// requires now > X−ringSize; since now is monotone, all migrated heap
// events for X carry smaller seq than any direct ring append for X, and
// migration happens exactly when now first advances past X−ringSize —
// before any event at the new now executes. Appending migrated events
// ahead of future ring appends therefore preserves global (cycle, seq)
// order, and ring nodes need not store seq at all. The calendar_test.go
// property test cross-checks this dispatch order against a reference
// heap over randomized event streams.
const (
	ringBits  = 12
	ringSize  = Cycle(1) << ringBits // bucketed scheduling window, in cycles
	ringMask  = ringSize - 1
	busyWords = int(ringSize) / 64
)

// node is one queued call in the arena; its cycle is implied by the
// bucket whose list it is on.
type node struct {
	call Call
	next int32 // next node in the bucket (or on the free list); 0 = none
}

// farEvent is an overflow-heap entry (cycle kept explicitly).
type farEvent struct {
	at   Cycle
	seq  uint64
	call Call
}

// bucket is one cycle's FIFO list of arena nodes; head == 0 means empty.
type bucket struct {
	head, tail int32
}

// Engine is the event queue. The zero value is ready to use.
type Engine struct {
	now   Cycle
	last  Cycle
	seq   uint64
	count int
	busy  [busyWords]uint64 // occupancy bitmap over ring slots
	ring  [ringSize]bucket
	nodes []node     // the shared event arena; nodes[0] is the sentinel
	free  int32      // head of the arena free list; 0 = empty
	far   []farEvent // min-heap on (at, seq) for events ≥ now+ringSize
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// LastEventAt returns the cycle of the most recently executed event
// (zero if none ran). Unlike Now, it never advances on idle horizons, so
// it reports the true end of activity in windowed (sharded) execution.
func (e *Engine) LastEventAt() Cycle { return e.last }

// Schedule runs fn after delay cycles; it is ScheduleCall with a
// closure continuation, for cold sites and external drivers.
func (e *Engine) Schedule(delay Cycle, fn func()) { e.ScheduleCall(delay, Call{Fn: fn}) }

// ScheduleCall runs c after delay cycles. A delay of zero runs c later
// in the current cycle, after already-queued same-cycle events.
//
//simlint:hotpath
func (e *Engine) ScheduleCall(delay Cycle, c Call) {
	e.seq++
	if delay < ringSize {
		e.pushRing(e.now+delay, c)
	} else {
		e.pushFar(farEvent{at: e.now + delay, seq: e.seq, call: c})
	}
	e.count++
}

// ScheduleAt runs c at absolute cycle at, which must not lie in the
// past. Among events at the same cycle it runs after everything already
// queued (same FIFO rule as ScheduleCall). Cross-shard message delivery
// uses it to inject mail stamped with absolute delivery cycles.
//
//simlint:hotpath
func (e *Engine) ScheduleAt(at Cycle, c Call) {
	if at < e.now {
		panic("sim: ScheduleAt in the past (causality violation)")
	}
	e.ScheduleCall(at-e.now, c)
}

// pushRing appends c to the bucket of cycle at, taking a node from the
// arena free list (or growing the arena when none is free).
//
//simlint:hotpath
func (e *Engine) pushRing(at Cycle, c Call) {
	i := e.free
	if i != 0 {
		e.free = e.nodes[i].next
		e.nodes[i] = node{call: c}
	} else {
		if len(e.nodes) == 0 {
			e.nodes = append(e.nodes, node{}) // the sentinel
		}
		i = int32(len(e.nodes))
		e.nodes = append(e.nodes, node{call: c})
	}
	s := at & ringMask
	b := &e.ring[s]
	if b.head == 0 {
		b.head = i
		e.busy[s>>6] |= 1 << (s & 63)
	} else {
		e.nodes[b.tail].next = i
	}
	b.tail = i
}

//simlint:hotpath
func (e *Engine) pushFar(fe farEvent) {
	e.far = append(e.far, fe)
	i := len(e.far) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !farLess(&e.far[i], &e.far[p]) {
			break
		}
		e.far[i], e.far[p] = e.far[p], e.far[i]
		i = p
	}
}

func farLess(a, b *farEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// popFar removes and returns the earliest overflow event.
//
//simlint:hotpath
func (e *Engine) popFar() farEvent {
	fe := e.far[0]
	n := len(e.far) - 1
	e.far[0] = e.far[n]
	e.far[n].call = Call{} // release the continuation for GC
	e.far = e.far[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && farLess(&e.far[l], &e.far[min]) {
			min = l
		}
		if r < n && farLess(&e.far[r], &e.far[min]) {
			min = r
		}
		if min == i {
			break
		}
		e.far[i], e.far[min] = e.far[min], e.far[i]
		i = min
	}
	return fe
}

// migrateFar moves overflow events that now fall inside the ring window
// into their buckets. It must run whenever now advances, before any event
// at the new time executes (see the ordering invariant above).
//
//simlint:hotpath
func (e *Engine) migrateFar() {
	horizon := e.now + ringSize
	for len(e.far) > 0 && e.far[0].at < horizon {
		fe := e.popFar()
		e.pushRing(fe.at, fe.call)
	}
}

// nextBusy returns the ring slot of the earliest nonempty bucket at or
// after cycle from, scanning the occupancy bitmap with wraparound.
//
//simlint:hotpath
func (e *Engine) nextBusy(from Cycle) (Cycle, bool) {
	s0 := from & ringMask
	w0 := int(s0 >> 6)
	if word := e.busy[w0] &^ (1<<(s0&63) - 1); word != 0 {
		return Cycle(w0<<6 + bits.TrailingZeros64(word)), true
	}
	for k := 1; k <= busyWords; k++ {
		w := (w0 + k) & (busyWords - 1)
		if e.busy[w] != 0 {
			return Cycle(w<<6 + bits.TrailingZeros64(e.busy[w])), true
		}
	}
	return 0, false
}

// nextEventAt returns the cycle of the earliest queued event. The queue
// must be nonempty. Ring events always precede overflow events: the
// migration invariant keeps far[0].at ≥ now+ringSize while every ring
// event lies below now+ringSize.
//
//simlint:hotpath
func (e *Engine) nextEventAt() Cycle {
	if slot, ok := e.nextBusy(e.now); ok {
		return e.now + ((slot - (e.now & ringMask)) & ringMask)
	}
	return e.far[0].at
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.count }

// NextAt returns the cycle of the earliest queued event; ok is false if
// the queue is empty.
func (e *Engine) NextAt() (at Cycle, ok bool) {
	if e.count == 0 {
		return 0, false
	}
	return e.nextEventAt(), true
}

// stepAt advances time to at, executes the earliest event (which must be
// at cycle at), and returns.
//
//simlint:hotpath
func (e *Engine) stepAt(at Cycle) {
	if at != e.now {
		e.now = at
		e.migrateFar()
	}
	s := at & ringMask
	b := &e.ring[s]
	i := b.head
	n := &e.nodes[i]
	c := n.call
	b.head = n.next
	if b.head == 0 {
		b.tail = 0
		e.busy[s>>6] &^= 1 << (s & 63)
	}
	*n = node{next: e.free} // release the continuation for GC
	e.free = i
	e.count--
	e.last = at
	c.Run()
}

// Step executes the earliest event, advancing time to it. It reports
// whether an event was executed.
//
//simlint:hotpath
func (e *Engine) Step() bool {
	if e.count == 0 {
		return false
	}
	e.stepAt(e.nextEventAt())
	return true
}

// RunUntil executes events until the queue is empty or the next event
// would be at or beyond limit. It returns the number of events executed.
//
//simlint:hotpath
func (e *Engine) RunUntil(limit Cycle) uint64 {
	var n uint64
	for e.count > 0 {
		at := e.nextEventAt()
		if at >= limit {
			break
		}
		e.stepAt(at)
		n++
	}
	if e.now < limit && e.count == 0 {
		// Time still advances to the horizon even if nothing is queued.
		e.now = limit
	}
	return n
}

// RunWhile executes events while cond() holds and events remain.
// It returns the number of events executed.
func (e *Engine) RunWhile(cond func() bool) uint64 {
	var n uint64
	for cond() && e.Step() {
		n++
	}
	return n
}

// Drain executes all remaining events (bounded by maxEvents as a safety
// net against livelock bugs; pass 0 for no bound). It reports whether the
// queue fully drained.
func (e *Engine) Drain(maxEvents uint64) bool {
	var n uint64
	for e.Step() {
		n++
		if maxEvents != 0 && n >= maxEvents {
			return e.count == 0
		}
	}
	return true
}

// Clock returns the engine's clock state (current cycle, last executed
// event cycle) for checkpointing. It is only meaningful — and only
// deterministic — when the queue is empty: snapshots are taken at
// drained epoch boundaries.
func (e *Engine) Clock() (now, last Cycle) { return e.now, e.last }

// RestoreClock resets the clock to a checkpointed value. The queue must
// be empty: restoring under queued events would time-travel them. The
// internal FIFO sequence counter is deliberately NOT restored — with an
// empty queue only the relative order of future events matters, and
// that is preserved starting from any counter value.
func (e *Engine) RestoreClock(now, last Cycle) {
	if e.count != 0 {
		panic("sim: RestoreClock with queued events")
	}
	e.now = now
	e.last = last
}
