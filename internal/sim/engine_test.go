package sim

import "testing"

func TestScheduleOrdering(t *testing.T) {
	var e Engine
	var order []int
	e.Schedule(10, func() { order = append(order, 2) })
	e.Schedule(5, func() { order = append(order, 1) })
	e.Schedule(10, func() { order = append(order, 3) }) // same cycle: FIFO
	for e.Step() {
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("execution order = %v, want [1 2 3]", order)
	}
	if e.Now() != 10 {
		t.Errorf("Now = %d, want 10", e.Now())
	}
}

func TestZeroDelayRunsSameCycle(t *testing.T) {
	var e Engine
	var at []Cycle
	e.Schedule(3, func() {
		e.Schedule(0, func() { at = append(at, e.Now()) })
	})
	e.Drain(0)
	if len(at) != 1 || at[0] != 3 {
		t.Fatalf("zero-delay event ran at %v, want [3]", at)
	}
}

func TestRunUntilStopsBeforeLimit(t *testing.T) {
	var e Engine
	ran := 0
	e.Schedule(5, func() { ran++ })
	e.Schedule(10, func() { ran++ })
	n := e.RunUntil(10)
	if n != 1 || ran != 1 {
		t.Fatalf("RunUntil(10) executed %d events (ran=%d), want 1", n, ran)
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
}

func TestRunUntilAdvancesIdleTime(t *testing.T) {
	var e Engine
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Errorf("idle RunUntil should advance time: Now = %d", e.Now())
	}
}

func TestRunWhile(t *testing.T) {
	var e Engine
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Cycle(i), func() { count++ })
	}
	e.RunWhile(func() bool { return count < 4 })
	if count != 4 {
		t.Errorf("RunWhile stopped at count=%d, want 4", count)
	}
}

func TestDrainBounded(t *testing.T) {
	var e Engine
	// A self-rescheduling event would livelock an unbounded drain.
	var loop func()
	loop = func() { e.Schedule(1, loop) }
	e.Schedule(0, loop)
	if e.Drain(100) {
		t.Error("bounded Drain of a livelock should report not-drained")
	}
}

// Same-cycle FIFO must hold across Schedule(0, …) chains: an event that
// enqueues zero-delay work runs that work after every event already
// queued for the cycle, and chains of zero-delay events preserve their
// enqueue order. The sharded mode leans on this to keep the L2-bank and
// issue-slot ladders deterministic.
func TestScheduleZeroChainFIFO(t *testing.T) {
	var e Engine
	var order []string
	e.Schedule(5, func() {
		order = append(order, "a")
		e.Schedule(0, func() {
			order = append(order, "a0")
			e.Schedule(0, func() { order = append(order, "a00") })
		})
		e.Schedule(0, func() { order = append(order, "a1") })
	})
	e.Schedule(5, func() { order = append(order, "b") })
	e.Drain(0)
	want := []string{"a", "b", "a0", "a1", "a00"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 5 || e.LastEventAt() != 5 {
		t.Errorf("Now/LastEventAt = %d/%d, want 5/5", e.Now(), e.LastEventAt())
	}
}

func TestScheduleAt(t *testing.T) {
	var e Engine
	var at []Cycle
	e.ScheduleAt(7, Call{Fn: func() { at = append(at, e.Now()) }})
	e.Schedule(7, func() { at = append(at, e.Now()+100) }) // queued later, same cycle: runs second
	e.Drain(0)
	if len(at) != 2 || at[0] != 7 || at[1] != 107 {
		t.Fatalf("ScheduleAt ordering = %v, want [7 107]", at)
	}
	defer func() {
		if recover() == nil {
			t.Error("ScheduleAt in the past did not panic")
		}
	}()
	e.ScheduleAt(3, Call{Fn: func() {}})
}

func TestNextAtAndLastEventAt(t *testing.T) {
	var e Engine
	if _, ok := e.NextAt(); ok {
		t.Error("empty engine reported a next event")
	}
	if e.LastEventAt() != 0 {
		t.Errorf("fresh engine LastEventAt = %d", e.LastEventAt())
	}
	e.Schedule(9, func() {})
	if at, ok := e.NextAt(); !ok || at != 9 {
		t.Errorf("NextAt = %d,%v, want 9,true", at, ok)
	}
	e.Drain(0)
	e.RunUntil(50) // idle horizon advance must not move LastEventAt
	if e.LastEventAt() != 9 || e.Now() != 50 {
		t.Errorf("LastEventAt/Now = %d/%d, want 9/50", e.LastEventAt(), e.Now())
	}
}

func TestCascadedScheduling(t *testing.T) {
	var e Engine
	var times []Cycle
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(2, func() {
			times = append(times, e.Now())
			e.Schedule(3, func() { times = append(times, e.Now()) })
		})
	})
	e.Drain(0)
	want := []Cycle{1, 3, 6}
	for i, w := range want {
		if times[i] != w {
			t.Fatalf("cascade times = %v, want %v", times, want)
		}
	}
}
