// Package sim provides the simulation substrate for the reproduction of
// "Transaction Support in a Log-Structured File System" (Seltzer, ICDE 1993):
// a deterministic simulated clock, a disk service-time model parameterised to
// resemble the paper's DEC RZ55 SCSI drive, a CPU cost model for the
// operating-system overheads the paper discusses (system calls, lock
// operations, buffer-cache hits), a small deterministic random number
// generator used by the workloads, and a discrete-event scheduler of
// cooperatively scheduled virtual processes for multiprogramming runs.
//
// All elapsed-time results in the benchmark harness are measured in simulated
// time: the disk model advances the clock for every I/O, and the cost model
// advances it for every modelled CPU operation. With a multiprogramming level
// of one (the paper's configuration) time accrues on a single cursor exactly
// as in the original direct-advance design; at MPL > 1 each client runs as a
// sim.Proc with its own virtual-time cursor and the Scheduler interleaves
// them deterministically.
package sim

import (
	"fmt"
	"time"
)

// Clock is a monotonically increasing simulated clock. The zero value is a
// clock at time zero, ready to use. While a Scheduler is attached and a
// virtual process is running, Now and Advance operate on that proc's private
// virtual-time cursor; otherwise they operate on the global cursor.
//
// A Clock has no lock of its own, and neither has anything built on it: it
// must be used from proc context — whichever proc holds the scheduler's
// token — or from the main goroutine while no scheduler runs. The coroutine
// switches that pass the token order every access.
type Clock struct {
	now time.Duration

	sched *Scheduler
	cur   *Proc // the running proc; nil between dispatches and outside Run
	stall []func() bool
}

// NewClock returns a clock starting at time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current simulated time: the running proc's cursor in proc
// context, the global cursor otherwise.
func (c *Clock) Now() time.Duration {
	if c.cur != nil {
		return c.cur.now
	}
	return c.now
}

// Advance moves the clock forward by d, charged to the running proc in proc
// context. A negative duration panics, so a miscomputed delay can neither
// make time run backwards nor masquerade as time standing still.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		//simlint:alloc(cold panic diagnostic)
		panic(fmt.Sprintf("sim: negative clock advance %v", d))
	}
	if c.cur != nil {
		c.cur.now += d
	} else {
		c.now += d
	}
}

// AdvanceTo moves the clock forward to t if t is later than the current time.
// Scheduler.Run calls it with no proc current, to bring the global clock up to
// the latest proc finish time.
func (c *Clock) AdvanceTo(t time.Duration) {
	if c.cur != nil {
		if t > c.cur.now {
			c.cur.now = t
		}
	} else if t > c.now {
		c.now = t
	}
}

// String formats the current simulated time.
func (c *Clock) String() string {
	return fmt.Sprintf("sim.Clock(%v)", c.Now())
}

// attach binds a scheduler to the clock. Exactly one may be attached.
func (c *Clock) attach(s *Scheduler) {
	if c.sched != nil {
		panic("sim: clock already has a scheduler attached")
	}
	c.sched = s
}

// detach unbinds the scheduler when its Run completes.
func (c *Clock) detach(s *Scheduler) {
	if c.sched == s {
		c.sched = nil
		c.cur = nil
	}
}

// InProc reports whether the caller is executing inside a virtual process.
func (c *Clock) InProc() bool { return c.cur != nil }

// CurrentProcID returns the running proc's id, or -1 outside proc context.
// Observability layers use it to attribute events to virtual processes
// without holding a reference to the scheduler.
func (c *Clock) CurrentProcID() int {
	if c.cur == nil {
		return -1
	}
	return c.cur.id
}

// Yield is a cooperative scheduling point: if another runnable proc is
// earlier in virtual time, the current proc parks and the scheduler resumes
// the earlier one. Outside proc context, or when the current proc is still
// the earliest, it is a no-op — so MPL=1 code paths are unaffected.
//
//simlint:noalloc
func (c *Clock) Yield() {
	p, s := c.cur, c.sched
	if p == nil || !s.shouldPreempt(p) {
		return
	}
	p.state = procRunnable
	s.runnable.push(p)
	p.park()
}

// OtherRunnable reports whether a runnable proc other than the current one
// exists — i.e. whether waiting for more work to batch could ever pay off.
// The runnable heap holds exactly the runnable procs that are not running,
// so this is a length check. It is false when no scheduler is attached.
//
//simlint:noalloc
func (c *Clock) OtherRunnable() bool {
	return c.sched != nil && len(c.sched.runnable) > 0
}

// OnStall registers a hook the scheduler calls when every live proc is
// blocked. A hook returns true if it made progress (woke at least one
// proc); it runs in Scheduler.Run with no proc current, so it
// must not advance the clock — typically it flags work as due and wakes a
// waiter to perform it in proc context. This is the discrete-event
// analogue of a group-commit timeout firing.
func (c *Clock) OnStall(fn func() bool) { c.stall = append(c.stall, fn) }

// fireStallHooks runs the registered hooks until one reports progress.
func (c *Clock) fireStallHooks() bool {
	for _, fn := range c.stall {
		if fn() {
			return true
		}
	}
	return false
}
