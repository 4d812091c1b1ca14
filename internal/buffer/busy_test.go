package buffer

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// busyRig is a clocked pool whose fetch charges the fetching proc readTime,
// as a disk read would.
type busyRig struct {
	clk     *sim.Clock
	pool    *Pool
	fetches int
}

const readTime = 10 * time.Millisecond

func newBusyRig(clk *sim.Clock, tr *trace.Tracer) *busyRig {
	r := &busyRig{clk: clk, pool: New(4, 64, nil)}
	r.pool.SetClock(clk)
	r.pool.SetTracer(tr, "buffer.test")
	return r
}

func (r *busyRig) fetch(id BlockID, dst []byte) error {
	r.fetches++
	r.clk.Advance(readTime)
	dst[0] = byte(id.Block)
	return nil
}

// get is one Get + Release of block 7, returning the caller's clock after it.
func (r *busyRig) get(t *testing.T) time.Duration {
	b, err := r.pool.Get(BlockID{1, 7}, r.fetch)
	if err != nil {
		t.Fatal(err)
	}
	if b.Data[0] != 7 {
		t.Fatalf("block 7 holds %d", b.Data[0])
	}
	r.pool.Release(b)
	return r.clk.Now()
}

// TestBlockBusyUntilRead: a proc that finds a block another proc is still
// reading, in simulated time, sleeps until that read completes, as on a busy
// buffer; the fetching proc itself, and a caller outside proc context, waits
// for nothing.
func TestBlockBusyUntilRead(t *testing.T) {
	r := newBusyRig(sim.NewClock(), nil)
	var aDone, aAgain, bResumed time.Duration
	s := sim.NewScheduler(r.clk)
	s.Spawn("a", func() {
		aDone = r.get(t) // the miss: a's clock runs to the read's end
		r.clk.Yield()    // b, still at time 0, runs now
		aAgain = r.get(t)
	})
	s.Spawn("b", func() {
		bResumed = r.get(t)
	})
	s.Run()
	if r.fetches != 1 {
		t.Fatalf("%d fetches, want 1", r.fetches)
	}
	if aDone != readTime {
		t.Fatalf("the read ended at %v, want %v", aDone, readTime)
	}
	if bResumed < aDone {
		t.Fatalf("b got the block at %v, before a's read of it completed at %v", bResumed, aDone)
	}
	if aAgain != aDone {
		t.Fatalf("a waited %v for its own buffer", aAgain-aDone)
	}

	// Outside proc context the one clock is already past every fetch.
	before := r.clk.Now()
	if after := r.get(t); after != before {
		t.Fatalf("a Get outside proc context moved the clock %v → %v", before, after)
	}
	r2 := newBusyRig(sim.NewClock(), nil)
	if got := r2.get(t); got != readTime {
		t.Fatalf("a miss outside proc context ended at %v, want %v", got, readTime)
	}
	if got := r2.get(t); got != readTime {
		t.Fatalf("a hit outside proc context moved the clock to %v", got)
	}
}

// TestAwaitGuardsLookup: a reader that takes a block's bytes through Lookup
// instead of Get waits for its read the same way, and a pool without a clock
// never waits.
func TestAwaitGuardsLookup(t *testing.T) {
	r := newBusyRig(sim.NewClock(), nil)
	var got time.Duration
	s := sim.NewScheduler(r.clk)
	s.Spawn("a", func() {
		r.get(t)
		r.clk.Yield()
	})
	s.Spawn("b", func() {
		b := r.pool.Lookup(BlockID{1, 7})
		if b == nil {
			t.Error("block 7 not resident")
			return
		}
		r.pool.Await(b)
		got = r.clk.Now()
	})
	s.Run()
	if got != readTime {
		t.Fatalf("Await returned at %v, want the read's end %v", got, readTime)
	}

	p := New(4, 64, nil) // no clock: Await and WaitUntil do nothing
	b, err := p.Get(BlockID{1, 1}, func(BlockID, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	p.Await(b)
	p.WaitUntil(time.Hour)
	p.Release(b)
}

// TestBusyWaitIsQueueTime: in a traced run the waiting proc's busy-buffer
// wait is queue time (time behind another client's disk request), not
// compute.
func TestBusyWaitIsQueueTime(t *testing.T) {
	clk := sim.NewClock()
	tr := trace.New(clk)
	r := newBusyRig(clk, tr)
	s := sim.NewScheduler(r.clk)
	s.Spawn("a", func() {
		tr.ProcStart("a")
		r.get(t)
		r.clk.Yield()
		tr.ProcEnd()
	})
	s.Spawn("b", func() {
		tr.ProcStart("b")
		r.clk.Advance(time.Millisecond)
		r.get(t)
		tr.ProcEnd()
	})
	s.Run()
	rows := tr.Attribution()
	if len(rows) != 2 {
		t.Fatalf("%d attribution rows, want 2", len(rows))
	}
	if a := rows[0]; a.Queue != 0 {
		t.Fatalf("the fetching proc shows %v of queue time, want 0", a.Queue)
	}
	if b := rows[1]; b.Queue != readTime-time.Millisecond || b.Compute != time.Millisecond {
		t.Fatalf("the waiting proc shows queue %v and compute %v, want %v and %v",
			b.Queue, b.Compute, readTime-time.Millisecond, time.Millisecond)
	}
}
