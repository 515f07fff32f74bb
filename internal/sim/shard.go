package sim

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// This file implements conservative parallel discrete-event simulation
// (classic null-message-free PDES with a fixed lookahead): a Cluster owns
// one Engine per shard and advances all shards in lockstep windows no
// wider than the minimum cross-shard latency. Within a window every shard
// executes its own events on its own goroutine; cross-shard interactions
// travel as cycle-stamped messages that are delivered at the next window
// barrier in a canonical (cycle, sender, sender-sequence) order.
//
// Because the window never exceeds the lookahead, a message generated
// inside window k is always stamped at or beyond the start of window k+1,
// so no shard can ever observe mail for a cycle it has already executed.
// The barrier order is a pure function of simulation state — not of
// goroutine scheduling — which makes parallel runs bit-identical to
// sequential ones: sequential mode runs the exact same windows and
// deliveries on a single goroutine.

// message is one cross-shard continuation with its delivery cycle and
// the canonical ordering key (sender id, per-sender sequence number).
type message struct {
	at   Cycle
	from int
	seq  uint64
	call Call
}

// Shard is one partition of a sharded simulation: an Engine that advances
// in lockstep windows with its peers, plus an inbox for messages from
// other shards.
type Shard struct {
	id      int
	cl      *Cluster
	eng     *Engine
	sendSeq uint64 // monotone per-sender counter; orders same-cycle mail

	mu    sync.Mutex
	inbox []message

	ran uint64 // events executed in the current window
}

// ID returns the shard's index within its cluster.
func (s *Shard) ID() int { return s.id }

// Engine returns the shard's event queue. Only the shard's own events may
// schedule on it directly; other shards must use Send.
func (s *Shard) Engine() *Engine { return s.eng }

// Send schedules c to run on shard dst, delay cycles after the sender's
// current time. The delay must be at least the cluster's lookahead window
// — that is the conservative-PDES contract that lets every shard execute
// a whole window without observing mid-window mail — and Send panics on a
// violation rather than silently corrupting determinism.
//
// Mail for the same delivery cycle is executed in (sender id, send order)
// order, after any events the destination shard had already scheduled
// for that cycle.
//
// c runs on dst's goroutine, so a handler's record index must refer to
// state dst owns (or to immutable data carried in the argument itself).
func (s *Shard) Send(dst *Shard, delay Cycle, c Call) {
	if delay < s.cl.window {
		panic(fmt.Sprintf("sim: Send delay %d below lookahead window %d", delay, s.cl.window))
	}
	s.sendSeq++
	m := message{at: s.eng.Now() + delay, from: s.id, seq: s.sendSeq, call: c}
	dst.mu.Lock()
	dst.inbox = append(dst.inbox, m)
	dst.mu.Unlock()
}

// Cluster advances a set of shards in deterministic lockstep windows,
// optionally executing each window's shards on parallel goroutines.
type Cluster struct {
	window   Cycle
	shards   []*Shard
	parallel bool

	start []chan Cycle // per-shard worker horizon feed (parallel mode)
	wg    sync.WaitGroup
}

// NewCluster builds a cluster of n shards with the given lookahead
// window (both must be ≥ 1). When parallel is true, windows execute on
// one goroutine per shard; otherwise shards run in index order on the
// caller's goroutine. Both modes produce bit-identical simulations.
func NewCluster(n int, window Cycle, parallel bool) *Cluster {
	if n < 1 || window < 1 {
		panic(fmt.Sprintf("sim: invalid cluster (%d shards, window %d)", n, window))
	}
	c := &Cluster{window: window, parallel: parallel && runtime.GOMAXPROCS(0) > 1}
	for i := 0; i < n; i++ {
		c.shards = append(c.shards, &Shard{id: i, cl: c, eng: &Engine{}})
	}
	return c
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.shards) }

// Shard returns shard i.
func (c *Cluster) Shard(i int) *Shard { return c.shards[i] }

// Window returns the lookahead window.
func (c *Cluster) Window() Cycle { return c.window }

// Parallel reports whether windows execute on parallel goroutines.
func (c *Cluster) Parallel() bool { return c.parallel }

// deliver drains every shard's inbox into its engine. It must only run at
// a barrier (no shard executing). Messages are sorted by (cycle, sender,
// sender-sequence) — a total key, so the order is independent of the
// goroutine interleaving that enqueued them and of the sort algorithm.
func (c *Cluster) deliver() {
	for _, s := range c.shards {
		if len(s.inbox) == 0 {
			continue
		}
		msgs := s.inbox
		slices.SortFunc(msgs, compareMessages)
		for i := range msgs {
			s.eng.ScheduleAt(msgs[i].at, msgs[i].call)
			msgs[i].call = Call{} // release the continuation for GC
		}
		s.inbox = msgs[:0]
	}
}

// compareMessages orders mail by (cycle, sender, sender-sequence).
func compareMessages(a, b message) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.from, b.from); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// RunWindow delivers pending cross-shard mail and advances every shard
// through one window. It returns the number of events executed; zero
// means the cluster is idle (no events queued and no mail in flight).
//
// The window starts at the earliest pending event across all shards, so
// idle stretches (e.g. long DRAM latencies) are skipped in one hop
// instead of being ground through window by window.
func (c *Cluster) RunWindow() uint64 {
	c.deliver()
	var earliest Cycle
	found := false
	for _, s := range c.shards {
		if at, ok := s.eng.NextAt(); ok && (!found || at < earliest) {
			earliest, found = at, true
		}
	}
	if !found {
		return 0
	}
	horizon := earliest + c.window

	if !c.parallel {
		var n uint64
		for _, s := range c.shards {
			n += s.eng.RunUntil(horizon)
		}
		return n
	}

	if c.start == nil {
		c.startWorkers()
	}
	c.wg.Add(len(c.shards))
	for _, ch := range c.start {
		ch <- horizon
	}
	c.wg.Wait()
	var n uint64
	for _, s := range c.shards {
		n += s.ran
	}
	return n
}

// startWorkers launches one persistent goroutine per shard; each waits
// for a horizon, runs its shard's window, and reports back through the
// cluster WaitGroup. Persistent workers keep the per-window barrier cost
// to a few channel operations.
func (c *Cluster) startWorkers() {
	c.start = make([]chan Cycle, len(c.shards))
	for i, s := range c.shards {
		ch := make(chan Cycle, 1)
		c.start[i] = ch
		go func(s *Shard) {
			for horizon := range ch {
				s.ran = s.eng.RunUntil(horizon)
				c.wg.Done()
			}
		}(s)
	}
}

// Run executes windows until the cluster is idle. maxEvents bounds the
// total event count as a livelock safety net (0 = no bound); Run reports
// whether the cluster drained within the bound.
func (c *Cluster) Run(maxEvents uint64) bool {
	var total uint64
	for {
		n := c.RunWindow()
		if n == 0 {
			return true
		}
		total += n
		if maxEvents != 0 && total >= maxEvents {
			return false
		}
	}
}

// LastEventAt returns the latest cycle at which any shard executed an
// event — the simulation's end time, unaffected by idle horizon advance.
func (c *Cluster) LastEventAt() Cycle {
	var last Cycle
	for _, s := range c.shards {
		if at := s.eng.LastEventAt(); at > last {
			last = at
		}
	}
	return last
}

// Close stops the cluster's worker goroutines (a no-op in sequential
// mode or before the first parallel window). The cluster must be idle.
func (c *Cluster) Close() {
	for _, ch := range c.start {
		close(ch)
	}
	c.start = nil
}
