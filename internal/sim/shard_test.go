package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// pingPong runs a deterministic multi-shard message storm and returns
// each shard's local execution log. Every shard appends only to its own
// log, so the logs are race-free in parallel mode; any divergence
// between modes shows up as a log difference.
func pingPong(parallel bool) [][]string {
	const shards, window, tokens = 4, 5, 40
	c := NewCluster(shards, window, parallel)
	logs := make([][]string, shards)

	var bounce func(s *Shard, token int)
	bounce = func(s *Shard, token int) {
		logs[s.ID()] = append(logs[s.ID()], fmt.Sprintf("t%d@%d", token, s.Engine().Now()))
		if token >= tokens {
			return
		}
		dst := c.Shard((s.ID() + token) % shards)
		s.Send(dst, Cycle(window+token%7), Call{Fn: func() { bounce(dst, token+1) }})
		// Local follow-up work exercises intra-shard ordering too.
		s.Engine().Schedule(Cycle(token%3), func() {
			logs[s.ID()] = append(logs[s.ID()], fmt.Sprintf("local%d@%d", token, s.Engine().Now()))
		})
	}

	for i := 0; i < shards; i++ {
		s := c.Shard(i)
		s.Engine().Schedule(Cycle(i), func() { bounce(s, i) })
	}
	if !c.Run(1 << 20) {
		panic("pingPong: livelock")
	}
	c.Close()
	return logs
}

// Parallel execution must be bit-identical to sequential: same events on
// every shard, at the same cycles, in the same order.
func TestClusterParallelMatchesSequential(t *testing.T) {
	seq := pingPong(false)
	for rep := 0; rep < 3; rep++ {
		par := pingPong(true)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("parallel run diverged from sequential:\nseq: %v\npar: %v", seq, par)
		}
	}
}

// Mail stamped exactly at a window boundary must be delivered for that
// cycle, run after the destination's already-queued same-cycle events,
// and be ordered by sender id when two shards' mail collides on one
// cycle.
func TestMailboxDeliveryAtWindowBoundary(t *testing.T) {
	const window = 10
	c := NewCluster(3, window, false)
	a, b, z := c.Shard(0), c.Shard(1), c.Shard(2)
	var order []string
	// Internal event queued for cycle 10 before any mail arrives.
	b.Engine().Schedule(window, func() { order = append(order, "internal") })
	// Both peers send mail that lands exactly at cycle 10 — the earliest
	// cycle the lookahead contract allows. Enqueue z's first to prove
	// delivery order is canonical (sender id), not enqueue order.
	z.Send(b, window, Call{Fn: func() { order = append(order, "from2") }})
	a.Send(b, window, Call{Fn: func() { order = append(order, "from0") }})
	c.Run(0)
	want := []string{"internal", "from0", "from2"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("boundary delivery order = %v, want %v", order, want)
	}
	if got := b.Engine().LastEventAt(); got != window {
		t.Errorf("mail executed at %d, want %d", got, window)
	}
}

// A Send below the lookahead window would let mail land inside a window
// a shard is already executing; it must panic rather than corrupt
// determinism.
func TestSendBelowWindowPanics(t *testing.T) {
	c := NewCluster(2, 10, false)
	defer func() {
		if recover() == nil {
			t.Error("Send with delay < window did not panic")
		}
	}()
	c.Shard(0).Send(c.Shard(1), 9, Call{Fn: func() {}})
}

// Sparse event queues must not be ground through window by window: the
// cluster jumps to the earliest pending event. A million-cycle gap at
// window 5 would take 200k windows ground naively; the livelock bound
// below would trip long before that if the jump were missing.
func TestClusterSkipsIdleGaps(t *testing.T) {
	c := NewCluster(2, 5, false)
	ran := false
	c.Shard(1).Engine().Schedule(1_000_000, func() { ran = true })
	if !c.Run(1000) {
		t.Fatal("cluster did not drain within the event bound (idle jump missing?)")
	}
	if !ran || c.LastEventAt() != 1_000_000 {
		t.Errorf("ran=%v LastEventAt=%d, want true/1000000", ran, c.LastEventAt())
	}
}

// Cross-shard round trips must accumulate latency exactly: two hops of
// the minimum (window) delay land 2×window after the origin event.
func TestRoundTripLatency(t *testing.T) {
	const window = 20
	c := NewCluster(2, window, false)
	a, b := c.Shard(0), c.Shard(1)
	var reply Cycle
	var ping, pong func(uint64)
	pong = func(tag uint64) { reply = a.Engine().Now() + Cycle(tag) }
	ping = func(tag uint64) { b.Send(a, window, Call{H: pong, Arg: tag}) }
	a.Engine().Schedule(7, func() { a.Send(b, window, Call{H: ping, Arg: 0}) })
	c.Run(0)
	if reply != 7+2*window {
		t.Errorf("round trip completed at %d, want %d", reply, 7+2*window)
	}
}
