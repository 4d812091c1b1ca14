package sim

import (
	"slices"
	"testing"
	"time"
)

// TestWaitQueueHeapProperty: after any interleaving of pushes and pops the
// waiters slice satisfies the binary-heap invariant, and pops drain in
// exactly the (now, id) order the previous sort-on-every-wake implementation
// produced.
func TestWaitQueueHeapProperty(t *testing.T) {
	rng := NewRNG(42)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		procs := make([]*Proc, n)
		for i := range procs {
			// Duplicate times on purpose: ties must break by id.
			procs[i] = &Proc{id: i, now: time.Duration(rng.Intn(8)) * time.Millisecond}
		}
		var q WaitQueue
		var reference []*Proc
		for _, p := range procs {
			q.waiters.push(p)
			reference = append(reference, p)
			checkHeap(t, &q)
			// Interleave: occasionally pop mid-build.
			if len(reference) > 1 && rng.Intn(3) == 0 {
				got := q.waiters.popMin()
				want := minProc(reference)
				if got != want {
					t.Fatalf("trial %d: pop = proc %d @%v, want proc %d @%v",
						trial, got.id, got.now, want.id, want.now)
				}
				reference = removeProc(reference, want)
				checkHeap(t, &q)
			}
		}
		for len(reference) > 0 {
			got := q.waiters.popMin()
			want := minProc(reference)
			if got != want {
				t.Fatalf("trial %d: drain pop = proc %d @%v, want proc %d @%v",
					trial, got.id, got.now, want.id, want.now)
			}
			reference = removeProc(reference, want)
			checkHeap(t, &q)
		}
		if !q.Empty() {
			t.Fatalf("trial %d: queue not empty after drain", trial)
		}
	}
}

// TestWaitQueueWakeOneOrder: WakeOne must release waiters in ascending
// (now, id) order regardless of arrival order.
func TestWaitQueueWakeOneOrder(t *testing.T) {
	clock := NewClock()
	sched := NewScheduler(clock)
	const n = 16
	var q WaitQueue
	var wakeOrder []int
	for i := 0; i < n; i++ {
		i := i
		sched.Spawn("waiter", func() {
			// Arrival times deliberately collide across ids.
			clock.Advance(time.Duration((i*7)%4) * time.Millisecond)
			q.Wait(clock)
			wakeOrder = append(wakeOrder, i)
		})
	}
	sched.Spawn("waker", func() {
		clock.Advance(time.Second)
		for {
			clock.Yield()
			if !q.WakeOne(clock) {
				return
			}
		}
	})
	sched.Run()

	want := make([]int, 0, n)
	type key struct {
		now time.Duration
		id  int
	}
	keys := make([]key, n)
	for i := 0; i < n; i++ {
		keys[i] = key{time.Duration((i*7)%4) * time.Millisecond, i}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if a.now != b.now {
			if a.now < b.now {
				return -1
			}
			return 1
		}
		return a.id - b.id
	})
	for _, k := range keys {
		want = append(want, k.id)
	}
	if !slices.Equal(wakeOrder, want) {
		t.Fatalf("wake order %v, want %v", wakeOrder, want)
	}
}

func checkHeap(t *testing.T, q *WaitQueue) {
	t.Helper()
	for i := 1; i < len(q.waiters); i++ {
		parent := (i - 1) / 2
		if waitsBefore(q.waiters[i], q.waiters[parent]) {
			t.Fatalf("heap violated at %d: child proc %d @%v before parent proc %d @%v",
				i, q.waiters[i].id, q.waiters[i].now, q.waiters[parent].id, q.waiters[parent].now)
		}
	}
}

func minProc(ps []*Proc) *Proc {
	best := ps[0]
	for _, p := range ps[1:] {
		if waitsBefore(p, best) {
			best = p
		}
	}
	return best
}

func removeProc(ps []*Proc, p *Proc) []*Proc {
	out := ps[:0]
	for _, q := range ps {
		if q != p {
			out = append(out, q)
		}
	}
	return out
}
