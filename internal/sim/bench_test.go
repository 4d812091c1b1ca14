package sim

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkDispatchYield times the scheduler's core context-switch path: N
// procs advancing in lockstep, each Yield preempting to the next-earliest
// proc via the runnable heap: a coroutine switch back to Run and one into the
// next proc. ns/op is the wall-clock cost of one dispatch.
func BenchmarkDispatchYield(b *testing.B) {
	for _, n := range []int{2, 16, 64, 256} {
		b.Run(fmt.Sprintf("procs%d", n), func(b *testing.B) {
			clock := NewClock()
			sched := NewScheduler(clock)
			per := b.N/n + 1
			for i := 0; i < n; i++ {
				sched.Spawn("p", func() {
					for j := 0; j < per; j++ {
						clock.Advance(time.Microsecond)
						clock.Yield()
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			sched.Run()
		})
	}
}

// BenchmarkWakeStorm times WaitQueue under the group-commit pattern: a wave
// of waiters parks, a waker broadcasts, everyone requeues. Exercises heap
// push/pop and the blocked→runnable transition en masse.
func BenchmarkWakeStorm(b *testing.B) {
	const n = 64
	clock := NewClock()
	sched := NewScheduler(clock)
	var q WaitQueue
	rounds := b.N/n + 1
	for i := 0; i < n; i++ {
		sched.Spawn("waiter", func() {
			for r := 0; r < rounds; r++ {
				clock.Advance(time.Microsecond)
				q.Wait(clock)
			}
		})
	}
	sched.Spawn("waker", func() {
		for r := 0; r < rounds; r++ {
			clock.Advance(time.Millisecond)
			q.Broadcast(clock)
			clock.Yield()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	sched.Run()
}

// TestDispatchSteadyStateAllocs pins the scheduler's marginal dispatch cost
// at zero allocations: two runs differing only in yield count must allocate
// (within noise) the same total, because the runnable heap reuses its
// backing array and a coroutine switch allocates nothing.
func TestDispatchSteadyStateAllocs(t *testing.T) {
	run := func(yields int) func() {
		return func() {
			clock := NewClock()
			sched := NewScheduler(clock)
			for i := 0; i < 4; i++ {
				sched.Spawn("p", func() {
					for j := 0; j < yields; j++ {
						clock.Advance(time.Microsecond)
						clock.Yield()
					}
				})
			}
			sched.Run()
		}
	}
	base := testing.AllocsPerRun(5, run(50))
	big := testing.AllocsPerRun(5, run(1050))
	// 4 procs × 1000 extra yields = 4000 extra dispatches per run. Allow a
	// little slack for runtime-internal noise.
	if extra := big - base; extra > 8 {
		t.Fatalf("4000 extra dispatches allocated %.1f extra allocs/run, want ~0 (base %.1f, big %.1f)",
			extra, base, big)
	}
}
