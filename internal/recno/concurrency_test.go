package recno_test

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/lfs"
	"repro/internal/libtp"
	"repro/internal/recno"
	"repro/internal/sim"
)

// lockingRig is a record file on LIBTP: page reads and writes take two-phase
// page locks, a lock request is a scheduling point, and AllocPage grows the
// file at once, visibly to every other transaction and without a lock.
func lockingRig(t *testing.T, recSize int) (*sim.Clock, *libtp.Env, *libtp.DB) {
	t.Helper()
	clk := sim.NewClock()
	fsys, err := lfs.Format(disk.New(sim.SmallModel(), clk), clk, lfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	env, err := libtp.NewEnv(fsys, clk, libtp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := env.OpenDB("/hist")
	if err != nil {
		t.Fatal(err)
	}
	setup := env.Begin()
	if _, err := recno.Create(setup.Store(db), recSize); err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	return clk, env, db
}

// TestConcurrentAppendersAcrossRollovers: 8 scheduler procs append one record
// per transaction through OpenForAppend while the file rolls over several
// pages. The tail page's write lock is the only serialization the appenders
// have — the count lives nowhere else — so every decision (which slot, whether
// to allocate) must be taken under it, also by an appender that waited for
// the lock across a rollover and by one that finds a page another transaction
// allocated a moment ago. Every record must land in its own slot, the count be
// exact, and nobody deadlock; two procs abort their first attempt of every
// record after the append, page allocation included.
func TestConcurrentAppendersAcrossRollovers(t *testing.T) {
	const (
		procs   = 8
		perProc = 9
		recSize = 500 // 8 slots per 4 KB page: 72 records roll over 9 pages
	)
	clk, env, db := lockingRig(t, recSize)
	appendOne := func(proc, seq int, abort bool) error {
		txn := env.Begin()
		f, err := recno.OpenForAppend(txn.Store(db))
		if err != nil {
			txn.Abort()
			return err
		}
		rec := make([]byte, recSize)
		binary.LittleEndian.PutUint32(rec[0:], uint32(proc))
		binary.LittleEndian.PutUint32(rec[4:], uint32(seq))
		if _, err := f.Append(rec); err != nil {
			txn.Abort()
			return err
		}
		// Hold the tail a while so the others pile up behind it.
		clk.Advance(time.Duration(1+proc) * 100 * time.Microsecond)
		clk.Yield()
		if abort {
			return txn.Abort()
		}
		return txn.Commit()
	}
	s := sim.NewScheduler(clk)
	for p := 0; p < procs; p++ {
		s.Spawn(fmt.Sprintf("appender-%d", p), func() {
			for seq := 0; seq < perProc; seq++ {
				if p%4 == 3 {
					if err := appendOne(p, seq, true); err != nil {
						t.Errorf("appender %d record %d (aborting attempt): %v", p, seq, err)
						return
					}
				}
				if err := appendOne(p, seq, false); err != nil {
					t.Errorf("appender %d record %d: %v", p, seq, err)
					return
				}
			}
		})
	}
	s.Run()
	if t.Failed() {
		return
	}

	if ls := env.LockStats(); ls.Deadlocks != 0 || ls.Upgrades != 0 {
		t.Fatalf("%d deadlocks, %d lock upgrades; want none", ls.Deadlocks, ls.Upgrades)
	}
	check := env.Begin()
	defer check.Commit()
	f, err := recno.Open(check.Store(db))
	if err != nil {
		t.Fatal(err)
	}
	if f.Count() != procs*perProc {
		t.Fatalf("count = %d, want %d", f.Count(), procs*perProc)
	}
	seen := make(map[[2]uint32]int64)
	next := make([]uint32, procs)
	for n := int64(0); n < f.Count(); n++ {
		rec, err := f.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		k := [2]uint32{binary.LittleEndian.Uint32(rec[0:]), binary.LittleEndian.Uint32(rec[4:])}
		if prev, dup := seen[k]; dup {
			t.Errorf("record (appender %d, seq %d) is in slots %d and %d", k[0], k[1], prev, n)
		}
		seen[k] = n
		if k[0] >= procs || k[1] != next[k[0]] {
			t.Fatalf("slot %d holds (appender %d, seq %d): lost or out of order", n, k[0], k[1])
		}
		next[k[0]]++
	}
	if np, _ := check.Store(db).NumPages(); np > 1+procs*perProc/8+1 {
		t.Fatalf("%d pages for %d records of 8 per page: aborted allocations were not reused", np, procs*perProc)
	}
}

// TestAbortAfterAllocLeavesReusableTail: the append that opens a new page is
// aborted. LIBTP does not undo file growth, so the page stays, empty; the
// count must not move, and the next append must fill that page's first slot
// rather than allocate another.
func TestAbortAfterAllocLeavesReusableTail(t *testing.T) {
	const recSize = 500 // 8 slots per page
	_, env, db := lockingRig(t, recSize)
	rec := make([]byte, recSize)
	appendIn := func(txn *libtp.Txn) int64 {
		t.Helper()
		f, err := recno.OpenForAppend(txn.Store(db))
		if err != nil {
			t.Fatal(err)
		}
		n, err := f.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	fill := env.Begin()
	for i := 0; i < 8; i++ {
		appendIn(fill)
	}
	if err := fill.Commit(); err != nil {
		t.Fatal(err)
	}

	loser := env.Begin()
	if n := appendIn(loser); n != 8 {
		t.Fatalf("aborting append got record number %d, want 8", n)
	}
	grown, _ := loser.Store(db).NumPages()
	loser.Abort()
	if grown != 3 {
		t.Fatalf("%d pages after the page-opening append, want 3", grown)
	}

	next := env.Begin()
	if f, err := recno.Open(next.Store(db)); err != nil || f.Count() != 8 {
		t.Fatalf("count over the aborted tail = %d, %v; want 8", f.Count(), err)
	}
	if n := appendIn(next); n != 8 {
		t.Fatalf("append after the abort got record number %d, want 8", n)
	}
	if np, _ := next.Store(db).NumPages(); np != grown {
		t.Fatalf("append after the abort grew the file to %d pages; the empty tail (%d pages) should have been filled", np, grown)
	}
	if err := next.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenWaitingAcrossRolloverSeesNewTail: a reader sizes the file, then
// waits for the tail page's lock while the appender holding it fills the page,
// allocates the next and appends there. Once the reader has the lock the page
// it waited for is no longer the tail: it must notice the growth and count the
// record on the new page, which committed before its read was granted.
func TestOpenWaitingAcrossRolloverSeesNewTail(t *testing.T) {
	const recSize = 500 // 8 slots per page
	clk, env, db := lockingRig(t, recSize)
	rec := make([]byte, recSize)
	fill := env.Begin()
	f, err := recno.OpenForAppend(fill.Store(db))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := f.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := fill.Commit(); err != nil {
		t.Fatal(err)
	}

	var counted int64
	s := sim.NewScheduler(clk)
	s.Spawn("appender", func() {
		txn := env.Begin()
		f, err := recno.OpenForAppend(txn.Store(db)) // write-locks the tail
		if err != nil {
			t.Error(err)
			return
		}
		clk.Advance(time.Millisecond) // the reader sizes the file and queues for the tail
		clk.Yield()
		for i := 0; i < 2; i++ { // slot 7 fills the page, the next record opens a new one
			if _, err := f.Append(rec); err != nil {
				t.Error(err)
				return
			}
		}
		if err := txn.Commit(); err != nil {
			t.Error(err)
		}
	})
	s.Spawn("reader", func() {
		clk.Advance(500 * time.Microsecond)
		clk.Yield()
		txn := env.Begin()
		defer txn.Commit()
		f, err := recno.Open(txn.Store(db))
		if err != nil {
			t.Error(err)
			return
		}
		counted = f.Count()
	})
	s.Run()
	if ls := env.LockStats(); ls.Waited == 0 {
		t.Fatal("the reader never waited for the tail: the scenario did not happen")
	}
	if counted != 9 {
		t.Fatalf("reader counted %d records, want 9 (7 + the 2 committed while it waited)", counted)
	}
}
