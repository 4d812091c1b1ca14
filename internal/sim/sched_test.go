package sim

import (
	"fmt"
	"testing"
	"time"
)

// TestSchedulerOrdersByVirtualTime: procs interleave by virtual time, with
// the lower id winning ties.
func TestSchedulerOrdersByVirtualTime(t *testing.T) {
	clk := NewClock()
	s := NewScheduler(clk)
	var trace []string
	step := func(name string, d time.Duration) func() {
		return func() {
			for i := 0; i < 3; i++ {
				clk.Yield()
				trace = append(trace, fmt.Sprintf("%s@%v", name, clk.Now()))
				clk.Advance(d)
			}
		}
	}
	s.Spawn("slow", step("slow", 30))
	s.Spawn("fast", step("fast", 10))
	s.Run()

	want := []string{"slow@0s", "fast@0s", "fast@10ns", "fast@20ns", "slow@30ns", "slow@60ns"}
	if len(trace) != len(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace[%d] = %s, want %s (full: %v)", i, trace[i], want[i], trace)
		}
	}
	if got := clk.Now(); got != 90 {
		t.Fatalf("final clock %v, want 90ns (slowest proc's end)", got)
	}
}

// TestSchedulerSingleProcDegenerate: one proc accrues time exactly as the
// bare clock would, and yields are no-ops.
func TestSchedulerSingleProcDegenerate(t *testing.T) {
	clk := NewClock()
	clk.Advance(5 * time.Millisecond)
	s := NewScheduler(clk)
	s.Spawn("only", func() {
		for i := 0; i < 10; i++ {
			clk.Yield()
			clk.Advance(time.Millisecond)
		}
	})
	s.Run()
	if got, want := clk.Now(), 15*time.Millisecond; got != want {
		t.Fatalf("clock = %v, want %v", got, want)
	}
}

// TestWaitQueueBlockedTime: a waiter resumes at the waker's later time and
// the difference is recorded as blocked time.
func TestWaitQueueBlockedTime(t *testing.T) {
	clk := NewClock()
	s := NewScheduler(clk)
	var q WaitQueue
	ready := false
	var blocked time.Duration

	s.Spawn("waiter", func() {
		for !ready {
			blocked += q.Wait(clk)
		}
	})
	s.Spawn("waker", func() {
		clk.Advance(40 * time.Millisecond)
		ready = true
		q.Broadcast(clk)
	})
	s.Run()

	if blocked != 40*time.Millisecond {
		t.Fatalf("blocked = %v, want 40ms", blocked)
	}
	if got := clk.Now(); got != 40*time.Millisecond {
		t.Fatalf("final clock = %v", got)
	}
}

// TestStallHookResolves: when every proc is blocked, the registered hook
// runs and can wake one to make progress.
func TestStallHookResolves(t *testing.T) {
	clk := NewClock()
	var q WaitQueue
	released := false
	clk.OnStall(func() bool {
		released = true
		return q.WakeOne(clk)
	})
	s := NewScheduler(clk)
	s.Spawn("sleeper", func() {
		for !released {
			q.Wait(clk)
		}
	})
	s.Run()
	if !released {
		t.Fatal("stall hook never ran")
	}
}

// TestSchedulerStallPanics: an unresolvable stall (blocked proc, no hook)
// panics with a proc dump instead of hanging.
func TestSchedulerStallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unresolvable stall")
		}
	}()
	clk := NewClock()
	var q WaitQueue
	s := NewScheduler(clk)
	s.Spawn("stuck", func() {
		q.Wait(clk)
	})
	s.Run()
}

// TestStrictNegativeAdvance: a negative duration panics.
func TestStrictNegativeAdvance(t *testing.T) {
	clk := NewClock()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative advance")
		}
	}()
	clk.Advance(-time.Second)
}

// TestSchedulerDeterminism: two identical runs produce identical traces.
func TestSchedulerDeterminism(t *testing.T) {
	run := func() []string {
		clk := NewClock()
		s := NewScheduler(clk)
		var trace []string
		for c := 0; c < 4; c++ {
			c := c
			rng := NewRNG(uint64(100 + c))
			s.Spawn(fmt.Sprintf("p%d", c), func() {
				for i := 0; i < 20; i++ {
					clk.Yield()
					trace = append(trace, fmt.Sprintf("%d@%v", c, clk.Now()))
					clk.Advance(time.Duration(rng.Intn(1000)) * time.Microsecond)
				}
			})
		}
		s.Run()
		trace = append(trace, clk.Now().String())
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestSpawnAfterRunPanics guards the fixed-proc-set invariant.
func TestSpawnAfterRunPanics(t *testing.T) {
	clk := NewClock()
	s := NewScheduler(clk)
	s.Spawn("a", func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Spawn after Run")
		}
	}()
	s.Spawn("b", func() {})
}

// TestProcPanicPropagates: a panic inside a proc surfaces from Run at once.
// Proc 0 parks on a WaitQueue and proc 1 panics; Run re-raises proc 1's value
// without resuming proc 0 — not even through the stall hook that would wake
// it — and detaches from the clock, which then takes a new scheduler.
func TestProcPanicPropagates(t *testing.T) {
	clk := NewClock()
	var q WaitQueue
	clk.OnStall(func() bool { return q.WakeOne(clk) })
	s := NewScheduler(clk)
	resumed := false
	s.Spawn("sleeper", func() {
		q.Wait(clk)
		resumed = true
	})
	s.Spawn("boom", func() {
		clk.Advance(time.Millisecond)
		panic("kaboom")
	})
	func() {
		defer func() {
			if r := recover(); r != "kaboom" {
				t.Fatalf("recovered %v, want kaboom", r)
			}
		}()
		s.Run()
	}()
	if resumed {
		t.Fatal("the parked proc ran after another proc panicked")
	}
	ran := false
	s2 := NewScheduler(clk)
	s2.Spawn("after", func() { ran = true })
	s2.Run()
	if !ran {
		t.Fatal("a scheduler attached after the panic did not run its proc")
	}
}
