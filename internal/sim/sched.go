package sim

import (
	"fmt"
	"iter"
	"strings"
	"time"
)

// procState tracks where a virtual process is in its lifecycle.
type procState int

const (
	procRunnable procState = iota
	procBlocked
	procDone
)

func (s procState) String() string {
	switch s {
	case procRunnable:
		return "runnable"
	case procBlocked:
		return "blocked"
	case procDone:
		return "done"
	}
	return "unknown"
}

// Proc is a cooperatively scheduled virtual process. Each proc carries its
// own virtual-time cursor: Clock.Now and Clock.Advance operate on the
// running proc's cursor, so N procs accumulate simulated time independently
// and the scheduler interleaves them by resuming whichever runnable proc is
// earliest in virtual time. A proc is a coroutine (iter.Pull): Run resumes
// it with next, and it returns control to Run by calling yield, so code
// running inside a proc needs no synchronization at all: only one of them
// runs at a time. The simulation packages start no goroutine of their own,
// tests included (rawgo and TestNoGoStatementInSimulationTests hold that
// line).
type Proc struct {
	id    int
	name  string
	sched *Scheduler
	body  func()
	next  func() (struct{}, bool) // resumes the proc; false once body has returned
	yield func(struct{}) bool     // returns control to Run

	now     time.Duration
	state   procState
	blocked time.Duration // cumulative virtual time spent in procBlocked, for the stall dump
}

// park returns control to Run, which resumes p when it is next popped from
// the runnable heap. Called only from p's own body, after p's state has been
// set to procRunnable (Yield, with p pushed on the runnable heap) or
// procBlocked (WaitQueue.Wait).
//
//simlint:noalloc
func (p *Proc) park() { p.yield(struct{}{}) }

// Scheduler runs a set of virtual processes to completion over a shared
// Clock, advancing each proc's private virtual-time cursor and resuming the
// runnable proc with the smallest (time, id) key — a deterministic
// discrete-event loop. While the scheduler runs, the clock routes Now and
// Advance to the current proc; when Run returns, the global clock has been
// advanced to the latest proc finish time, so MPL=1 code observes exactly
// the same final clock it did under the direct-advance regime.
//
// Runnable procs that are not currently running live on a binary min-heap
// keyed (virtual time, id), so choosing the next proc is O(log N) instead of
// an O(N) scan and a yield's preemption check is an O(1) peek. The heap
// never needs arbitrary-position updates: a proc's key is immutable while
// queued (only the running proc's cursor advances, and the running proc is
// never on the heap), state transitions happen only at the extremes — pop on
// dispatch, push on yield/wake — and a woken proc is pushed by wake itself.
//
// Control is a token that Run holds between dispatches and lends to one
// proc at a time: Run pops the minimum, resumes it with next, and takes the
// token back when the proc parks or returns. Every transfer is a coroutine
// switch, which orders memory like a channel operation, so the heap, the
// live counter, and the dispatch counter are safely unlocked. Like the Clock,
// a Scheduler is used from proc context or from the main goroutine while no
// scheduler runs: Spawn and Run are main-goroutine calls.
type Scheduler struct {
	clock      *Clock
	procs      []*Proc
	runnable   procHeap
	live       int   // procs not yet done
	dispatches int64 // control transfers into a proc
	started    bool
}

// Dispatches returns the number of times control has been transferred into a
// proc — the discrete-event count wall-clock benchmarks normalize by. It is
// deterministic: identically seeded runs dispatch identically. Callers read
// it after Run returns.
func (s *Scheduler) Dispatches() int64 { return s.dispatches }

// NewScheduler attaches a scheduler to the clock. Only one scheduler may be
// attached at a time; it detaches when Run returns.
func NewScheduler(clock *Clock) *Scheduler {
	s := &Scheduler{clock: clock}
	clock.attach(s)
	return s
}

// Spawn registers a virtual process. All procs must be spawned before Run;
// the spawn order fixes proc ids and therefore the deterministic tie-break.
// The proc's virtual clock starts at the global clock's current time.
func (s *Scheduler) Spawn(name string, body func()) {
	if s.started {
		panic("sim: Spawn after Scheduler.Run")
	}
	p := &Proc{id: len(s.procs), name: name, sched: s, body: body, now: s.clock.now}
	s.procs = append(s.procs, p)
	s.runnable.push(p)
	s.live++
}

// Run executes all spawned procs to completion and returns. It panics if a
// proc panics (next re-raises the proc's panic value, and no other proc runs
// after it) or if every live proc is blocked and no stall hook can make
// progress — a simulated deadlock the transaction layers failed to resolve.
// Between dispatches, and while a stall hook runs, Run is the only code
// running.
func (s *Scheduler) Run() {
	if s.started {
		panic("sim: Scheduler.Run called twice")
	}
	s.started = true
	defer s.clock.detach(s)

	for _, p := range s.procs {
		// stop is never called: a stopped proc's yield would return false
		// and let it run on with no scheduler. A proc that panics has ended
		// already, and after it the others stay parked.
		p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			p.body()
		})
	}

	for {
		p := s.runnable.popMin()
		if p == nil {
			if s.live == 0 {
				break
			}
			if !s.clock.fireStallHooks() || s.runnable.empty() {
				panic("sim: scheduler stalled with no runnable proc:\n" + s.dump())
			}
			continue
		}
		s.clock.cur = p
		s.dispatches++
		if _, ok := p.next(); !ok {
			p.state = procDone
			s.live--
		}
		s.clock.cur = nil
	}

	var end time.Duration
	for _, p := range s.procs {
		if p.now > end {
			end = p.now
		}
	}
	s.clock.AdvanceTo(end)
}

// shouldPreempt reports whether another runnable proc is strictly earlier in
// the (time, id) order than the current proc — i.e. whether a yield must
// actually reschedule. The current proc is never on the heap, so this is a
// peek at the heap minimum.
//
//simlint:noalloc
func (s *Scheduler) shouldPreempt(cur *Proc) bool {
	return len(s.runnable) > 0 && waitsBefore(s.runnable[0], cur)
}

// dump renders the proc table for the stall panic message.
func (s *Scheduler) dump() string {
	var b strings.Builder
	for _, p := range s.procs {
		fmt.Fprintf(&b, "  proc %d %q: %s at %v (blocked %v)\n", p.id, p.name, p.state, p.now, p.blocked)
	}
	return b.String()
}

// procHeap is a binary min-heap of procs keyed (now, id). It backs both the
// scheduler's runnable set and WaitQueue's waiters. Keys are immutable while
// a proc is queued — only the running proc's cursor advances, and a queued
// proc is by definition not running — so the heap never needs
// arbitrary-position updates, only push and pop-min.
type procHeap []*Proc

// waitsBefore is the (now, id) heap order. Ids are unique, so the order is
// total and the minimum is unambiguous — the determinism contract's dispatch
// and wake order.
//
//simlint:noalloc
func waitsBefore(a, b *Proc) bool {
	if a.now != b.now {
		return a.now < b.now
	}
	return a.id < b.id
}

//simlint:noalloc
func (h *procHeap) empty() bool { return len(*h) == 0 }

// push inserts p, restoring the heap property upward.
//
//simlint:noalloc
func (h *procHeap) push(p *Proc) {
	//simlint:alloc(heap slice grows to the high-water proc count once, then reuses capacity)
	q := append(*h, p)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !waitsBefore(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

// popMin removes and returns the minimum proc, or nil when empty.
//
//simlint:noalloc
func (h *procHeap) popMin() *Proc {
	q := *h
	if len(q) == 0 {
		return nil
	}
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = nil // release the reference
	q = q[:last]
	i := 0
	for {
		left, right := 2*i+1, 2*i+2
		min := i
		if left < last && waitsBefore(q[left], q[min]) {
			min = left
		}
		if right < last && waitsBefore(q[right], q[min]) {
			min = right
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	*h = q
	return top
}

// WaitQueue is a condition-variable analogue for virtual processes: Wait
// suspends the calling proc until Broadcast or WakeOne runs it again, and
// charges the wait to the proc's blocked time. A waiter resumes at max(its own
// time, the waker's time), preserving per-proc monotonicity. The zero value is
// ready to use.
//
// The waiters form a procHeap, so insertion order never matters: WakeOne
// pops exactly the proc the previous sort-on-every-wake implementation
// selected, in O(log n) instead of O(n log n).
//
// WaitQueue is the one place anything in the simulation blocks, and it is for
// proc context only: a caller that may run with no scheduler (set-up, drain,
// recovery) must treat a wait as an error, since nothing else runs that could
// end it (lock.Manager.Lock does). Empty, Broadcast and WakeOne may also run
// in a stall hook or on the main goroutine while no scheduler runs.
type WaitQueue struct {
	waiters procHeap
}

// Empty reports whether no procs are waiting.
//
//simlint:noalloc
func (q *WaitQueue) Empty() bool { return len(q.waiters) == 0 }

// Wait suspends the current proc until woken and returns the virtual time it
// spent blocked. Must be called from proc context.
//
//simlint:noalloc
func (q *WaitQueue) Wait(c *Clock) time.Duration {
	p := c.cur
	if p == nil {
		panic("sim: WaitQueue.Wait outside proc context")
	}
	q.waiters.push(p)
	start := p.now
	p.state = procBlocked
	p.park()
	return p.now - start
}

// wake marks p runnable at time at (or later, if p is already past it),
// accrues the blocked interval, and places p on the scheduler's runnable
// heap. Callers must have dequeued p from their wait queue first: each block
// is matched by exactly one wake, so p cannot already be on the heap.
//
//simlint:noalloc
func (p *Proc) wake(at time.Duration) {
	if at > p.now {
		p.blocked += at - p.now
		p.now = at
	}
	p.state = procRunnable
	p.sched.runnable.push(p)
}

// Broadcast wakes every waiter at the waker's current time. Safe to call
// from proc context or from the scheduler's stall hooks.
//
//simlint:noalloc
func (q *WaitQueue) Broadcast(c *Clock) {
	if len(q.waiters) == 0 {
		return
	}
	at := c.Now()
	for i, p := range q.waiters {
		p.wake(at)
		q.waiters[i] = nil
	}
	q.waiters = q.waiters[:0]
}

// WakeOne wakes the earliest waiter by (time, id) at the waker's current
// time and reports whether a waiter was woken. Like Broadcast, it runs in
// proc context or in a stall hook.
//
//simlint:noalloc
func (q *WaitQueue) WakeOne(c *Clock) bool {
	if len(q.waiters) == 0 {
		return false
	}
	q.waiters.popMin().wake(c.Now())
	return true
}
