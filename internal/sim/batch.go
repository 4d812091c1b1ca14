package sim

import "time"

// Batch is the group-commit rendezvous of §4.4: a committer "sleeps until
// sufficiently more transactions have committed to justify the write". A
// member that has made its work part of the open batch (appended its commit
// record, queued its pages) calls Join, which returns once a flush covering
// that work has run — so a committer is never acknowledged ahead of the
// flush. The open batch is flushed, by the member that notices, when
//
//   - it is full (size members),
//   - no other proc is runnable, so waiting could not add a member — a lone
//     client therefore flushes at once, whatever the size, or
//   - every proc has gone to sleep: the clock's stall hook wakes the earliest
//     sleeper, which flushes in its own simulated time (the discrete-event
//     analogue of the group-commit timeout).
//
// Both transaction managers commit through one Batch each and differ only in
// the flush they hand it; a batch policy (a timer, an adaptive size) is a
// change to this type alone.
type Batch struct {
	clock  *Clock
	size   int
	flush  func() error
	waited func(time.Duration)

	n        int      // members of the open batch
	open     *outcome // what the open batch's sleepers will read; nil while it has none
	due      bool     // stall arm: the sleeper just woken must flush
	sleepers WaitQueue
}

// outcome is one flush's result, shared by the members that slept for it: a
// woken member may not run before later batches have flushed, and must still
// read its own batch's error and nobody else's.
type outcome struct {
	done bool
	err  error
}

// NewBatch returns a rendezvous of up to size members and registers its stall
// arm with the clock. flush forces everything joined so far; waited, when
// non-nil, is told how long a member slept as soon as it wakes for good,
// before it flushes or returns (commit-wait attribution). Both are stored
// once, so Join allocates nothing for them.
func NewBatch(c *Clock, size int, flush func() error, waited func(time.Duration)) *Batch {
	b := &Batch{clock: c, size: size, flush: flush, waited: waited}
	c.OnStall(b.stall)
	return b
}

// Join adds the caller to the open batch and returns once that batch has been
// flushed, with the flush's error. slept reports whether the caller had to
// sleep for it (a batch of N has N−1 sleepers) rather than flush at once.
//
//simlint:noalloc
func (b *Batch) Join() (slept bool, err error) {
	b.n++
	if b.n >= b.size || !b.clock.OtherRunnable() {
		return false, b.Flush()
	}
	o := b.open
	if o == nil {
		//simlint:alloc(one outcome record per batch that has sleepers; a lone committer never gets here)
		o = &outcome{}
		b.open = o
	}
	var d time.Duration
	for !o.done && !b.due {
		d += b.sleepers.Wait(b.clock)
	}
	if b.waited != nil {
		b.waited(d)
	}
	if !o.done {
		return true, b.Flush()
	}
	return true, o.err
}

// Flush flushes the open batch now, settles its outcome and wakes its
// sleepers. Join calls it; an owner may too, to force a batch that has not
// filled.
//
//simlint:noalloc
func (b *Batch) Flush() error {
	o := b.open
	b.open, b.n, b.due = nil, 0, false
	err := b.flush()
	if o != nil {
		o.done, o.err = true, err
	}
	b.sleepers.Broadcast(b.clock)
	return err
}

// stall is the clock's stall hook: every live proc is asleep, so the open
// batch cannot grow. It runs in Scheduler.Run with no proc current, where the
// clock must not advance, so it only marks the flush due and wakes the
// earliest sleeper to perform it.
//
//simlint:noalloc
func (b *Batch) stall() bool {
	if b.sleepers.Empty() {
		return false
	}
	b.due = true
	return b.sleepers.WakeOne(b.clock)
}
