package sim

import (
	"errors"
	"slices"
	"testing"
	"time"
)

// batchRig is a Batch over a counting flush that takes 10 ms of simulated
// time and returns the next error queued in errs (nil when none is left).
type batchRig struct {
	clk     *Clock
	b       *Batch
	flusher []int // proc id of each flush, in order
	errs    []error
	waited  map[int]time.Duration // proc id → sleep reported to the waited hook
	events  []string
}

func newBatchRig(size int) *batchRig {
	r := &batchRig{clk: NewClock(), waited: map[int]time.Duration{}}
	r.b = NewBatch(r.clk, size, func() error {
		r.flusher = append(r.flusher, r.clk.CurrentProcID())
		r.events = append(r.events, "flush")
		r.clk.Advance(10 * time.Millisecond)
		if len(r.errs) == 0 {
			return nil
		}
		err := r.errs[0]
		r.errs = r.errs[1:]
		return err
	}, func(d time.Duration) {
		r.waited[r.clk.CurrentProcID()] = d
		r.events = append(r.events, "waited")
	})
	return r
}

// member is what Join gave one proc, and when.
type member struct {
	slept bool
	err   error
	at    time.Duration
}

// join runs one member at virtual time start.
func (r *batchRig) join(start time.Duration, out *member) func() {
	return func() {
		r.clk.Advance(start)
		r.clk.Yield()
		out.slept, out.err = r.b.Join()
		out.at = r.clk.Now()
	}
}

func (r *batchRig) run(bodies ...func()) {
	s := NewScheduler(r.clk)
	for _, body := range bodies {
		s.Spawn("member", body)
	}
	s.Run()
}

// TestBatchFullFlushesOnce: a batch of N is one flush, by the member that
// fills it, and N−1 sleepers, none of which returns before the flush is over.
func TestBatchFullFlushesOnce(t *testing.T) {
	const n = 4
	r := newBatchRig(n)
	out := make([]member, n)
	var bodies []func()
	for i := range out {
		bodies = append(bodies, r.join(time.Duration(i)*time.Millisecond, &out[i]))
	}
	r.run(bodies...)
	if len(r.flusher) != 1 || r.flusher[0] != n-1 {
		t.Fatalf("%d flushes by procs %v, want one by proc %d", len(r.flusher), r.flusher, n-1)
	}
	for i, m := range out {
		if m.err != nil || m.slept != (i != n-1) {
			t.Errorf("member %d: slept=%v err=%v", i, m.slept, m.err)
		}
		if want := (n-1)*time.Millisecond + 10*time.Millisecond; m.at != want {
			t.Errorf("member %d returned at %v, want %v (the end of the flush)", i, m.at, want)
		}
	}
	if got, want := r.waited[0], 13*time.Millisecond; got != want {
		t.Errorf("member 0 reported %v asleep, want %v", got, want)
	}
}

// TestBatchLoneMemberNeverWaits: with nobody else runnable a member flushes
// at once whatever the batch size — in a one-proc scheduler and outside one.
func TestBatchLoneMemberNeverWaits(t *testing.T) {
	r := newBatchRig(8)
	var out [3]member
	r.run(func() {
		r.join(0, &out[0])()
		r.join(0, &out[1])()
	})
	r.join(0, &out[2])() // no scheduler attached
	if len(r.flusher) != 3 {
		t.Fatalf("%d flushes for 3 lone joins, want 3", len(r.flusher))
	}
	for i, m := range out {
		if m.slept || m.err != nil {
			t.Errorf("join %d: slept=%v err=%v", i, m.slept, m.err)
		}
	}
	if len(r.waited) != 0 {
		t.Errorf("waited hook ran for a member that never slept: %v", r.waited)
	}
}

// TestBatchStallWakesEarliestSleeper: when every proc is asleep in the batch
// the stall arm wakes exactly the earliest sleeper, which reports its wait
// and then flushes in its own simulated time; the rest wake on that flush.
func TestBatchStallWakesEarliestSleeper(t *testing.T) {
	r := newBatchRig(100)
	var out [3]member
	r.run(
		r.join(3*time.Millisecond, &out[0]),
		r.join(1*time.Millisecond, &out[1]),
		r.join(2*time.Millisecond, &out[2]),
		// Runnable while the three join, so none of them flushes for want
		// of company; then gone.
		func() { r.clk.Advance(time.Second); r.clk.Yield() },
	)
	if len(r.flusher) != 1 || r.flusher[0] != 1 {
		t.Fatalf("%d flushes by procs %v, want one by proc 1 (asleep since 1ms)", len(r.flusher), r.flusher)
	}
	if want := []string{"waited", "flush", "waited", "waited"}; !slices.Equal(r.events, want) {
		t.Fatalf("events %v, want %v: the flusher's wait is reported before it flushes", r.events, want)
	}
	for i, m := range out {
		if !m.slept || m.err != nil || m.at != 11*time.Millisecond {
			t.Errorf("member %d: slept=%v err=%v at %v, want asleep until the flush ends at 11ms", i, m.slept, m.err, m.at)
		}
	}
	if r.waited[1] != 0 || r.waited[0] != 8*time.Millisecond || r.waited[2] != 9*time.Millisecond {
		t.Errorf("reported waits %v", r.waited)
	}
}

// TestBatchErrorReachesItsBatchOnly: a failed flush is returned to every
// member of that batch and to no member of the next — even when the next
// batch has flushed before a sleeper of the failed one runs again.
func TestBatchErrorReachesItsBatchOnly(t *testing.T) {
	r := newBatchRig(2)
	errIO := errors.New("flush failed")
	r.errs = []error{errIO}
	var a, b, c, d member
	r.run(
		r.join(0, &a),                  // sleeps; woken at 15ms, when the failed flush ends
		r.join(5*time.Millisecond, &b), // fills batch 1, flushes 5ms → 15ms: error
		r.join(6*time.Millisecond, &c), // batch 2, sleeps
		r.join(7*time.Millisecond, &d), // fills batch 2, flushes 7ms → 17ms: fine
	)
	if len(r.flusher) != 2 {
		t.Fatalf("%d flushes, want 2", len(r.flusher))
	}
	if !errors.Is(a.err, errIO) || !errors.Is(b.err, errIO) {
		t.Errorf("batch 1 got %v and %v, want the flush error twice", a.err, b.err)
	}
	if c.err != nil || d.err != nil {
		t.Errorf("batch 2 got %v and %v, want no error", c.err, d.err)
	}
	if !a.slept || b.slept || !c.slept || d.slept {
		t.Errorf("slept = %v %v %v %v, want the first of each pair only", a.slept, b.slept, c.slept, d.slept)
	}
}

// TestBatchFlushWakesSleepers: the owner can flush a batch that has not
// filled; its sleepers return with that flush's outcome.
func TestBatchFlushWakesSleepers(t *testing.T) {
	r := newBatchRig(100)
	var out member
	r.run(
		r.join(0, &out),
		func() {
			r.clk.Advance(time.Second)
			r.clk.Yield()
			if out.at != 0 {
				t.Error("Join returned before any flush")
			}
			if err := r.b.Flush(); err != nil {
				t.Error(err)
			}
		})
	if len(r.flusher) != 1 || !out.slept || out.err != nil || out.at != time.Second+10*time.Millisecond {
		t.Fatalf("flushes=%d, sleeper: %+v", len(r.flusher), out)
	}
}
