package libtp

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/hashidx"
	"repro/internal/lock"
	"repro/internal/pagestore"
	"repro/internal/recno"
	"repro/internal/sim"
)

// TestConcurrentTxnsNoLostUpdates drives several goroutines through
// conflicting increments with deadlock-retry; the final counter must equal
// the number of successful commits (run with -race).
func TestConcurrentTxnsNoLostUpdates(t *testing.T) {
	rig := newRig(t, "lfs")
	db, err := rig.env.OpenDB("/db")
	if err != nil {
		t.Fatal(err)
	}
	setup := rig.env.Begin()
	tr, err := btree.Create(setup.Store(db))
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]byte, 8)
	tr.Put([]byte("counter"), zero)
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	const workers = 5
	const perWorker = 12
	var wg sync.WaitGroup
	var committed int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				for attempt := 0; attempt < 50; attempt++ {
					txn := rig.env.Begin()
					tr, err := btree.Open(txn.Store(db))
					if err != nil {
						txn.Abort()
						continue
					}
					v, err := tr.Get([]byte("counter"))
					if err != nil {
						txn.Abort()
						if errors.Is(err, lock.ErrDeadlock) {
							continue
						}
						t.Error(err)
						return
					}
					n := binary.LittleEndian.Uint64(v)
					nv := make([]byte, 8)
					binary.LittleEndian.PutUint64(nv, n+1)
					if err := tr.Put([]byte("counter"), nv); err != nil {
						txn.Abort()
						continue
					}
					if err := txn.Commit(); err != nil {
						t.Error(err)
						return
					}
					atomic.AddInt64(&committed, 1)
					break
				}
			}
		}()
	}
	wg.Wait()

	check := rig.env.Begin()
	tr2, err := btree.Open(check.Store(db))
	if err != nil {
		t.Fatal(err)
	}
	v, err := tr2.Get([]byte("counter"))
	if err != nil {
		t.Fatal(err)
	}
	check.Commit()
	if got := int64(binary.LittleEndian.Uint64(v)); got != atomic.LoadInt64(&committed) {
		t.Fatalf("counter = %d, commits = %d: lost updates", got, committed)
	}
}

// TestDeadlockSurfacesToCaller: two transactions locking two pages in
// opposite order; one must receive ErrDeadlock through the store interface.
func TestDeadlockSurfacesToCaller(t *testing.T) {
	rig := newRig(t, "lfs")
	db, _ := rig.env.OpenDB("/db")
	setup := rig.env.Begin()
	st := setup.Store(db)
	// Two pages.
	if _, err := st.AllocPage(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AllocPage(); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, st.PageSize())
	st.WritePage(0, page)
	st.WritePage(1, page)
	setup.Commit()

	t1 := rig.env.Begin()
	t2 := rig.env.Begin()
	s1, s2 := t1.Store(db), t2.Store(db)
	if err := s1.WritePage(0, page); err != nil {
		t.Fatal(err)
	}
	if err := s2.WritePage(1, page); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- s1.WritePage(1, page) }()
	// Let the goroutine block on t2's lock first, then close the cycle.
	for rig.env.locks.Stats().Waited == 0 {
	}
	err2 := s2.WritePage(0, page)
	if errors.Is(err2, lock.ErrDeadlock) {
		// t2 is the victim: abort it, which unblocks t1.
		t2.Abort()
		if err1 := <-errCh; err1 != nil {
			t.Fatalf("winner should proceed after victim aborts: %v", err1)
		}
		if err := t1.Commit(); err != nil {
			t.Fatal(err)
		}
		return
	}
	// Otherwise t1 must have been chosen as the victim.
	if err1 := <-errCh; !errors.Is(err1, lock.ErrDeadlock) {
		t.Fatalf("neither transaction saw the deadlock: %v / %v", err1, err2)
	}
	t1.Abort()
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestHashIndexUnderTxn runs the linear-hash access method through the
// transactional store, with commit, abort, and crash recovery.
func TestHashIndexUnderTxn(t *testing.T) {
	rig := newRig(t, "lfs")
	db, _ := rig.env.OpenDB("/hash")
	txn := rig.env.Begin()
	tb, err := hashidx.Create(txn.Store(db))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		key := []byte{byte(i), byte(i >> 4), 'k'}
		if err := tb.Put(key, []byte{byte(i * 3)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	// An aborted overwrite leaves the table untouched, across bucket
	// splits and overflow pages.
	loser := rig.env.Begin()
	tb2, err := hashidx.Open(loser.Store(db))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		key := []byte{byte(i), byte(i >> 4), 'k'}
		tb2.Put(key, []byte{0xFF})
	}
	loser.Abort()

	check := rig.env.Begin()
	tb3, err := hashidx.Open(check.Store(db))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		key := []byte{byte(i), byte(i >> 4), 'k'}
		v, err := tb3.Get(key)
		if err != nil || v[0] != byte(i*3) {
			t.Fatalf("key %d = %v, %v after abort", i, v, err)
		}
	}
	check.Commit()

	// Crash + recovery.
	env2, _ := crashAndRecover(t, rig, []string{"/hash"})
	db2, _ := env2.OpenDB("/hash")
	final := env2.Begin()
	tb4, err := hashidx.Open(final.Store(db2))
	if err != nil {
		t.Fatal(err)
	}
	if tb4.Count() != 120 {
		t.Fatalf("count after crash = %d", tb4.Count())
	}
	final.Commit()
}

// TestRecnoAbortRestoresCount: an aborted append's slots roll back, and with
// them the record count recno derives from the tail page.
func TestRecnoAbortRestoresCount(t *testing.T) {
	rig := newRig(t, "lfs")
	db, _ := rig.env.OpenDB("/rec")
	txn := rig.env.Begin()
	rf, err := recno.Create(txn.Store(db), 16)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 16)
	for i := 0; i < 10; i++ {
		rf.Append(rec)
	}
	txn.Commit()

	loser := rig.env.Begin()
	rf2, _ := recno.Open(loser.Store(db))
	for i := 0; i < 5; i++ {
		rf2.Append(rec)
	}
	loser.Abort()

	check := rig.env.Begin()
	rf3, err := recno.Open(check.Store(db))
	if err != nil {
		t.Fatal(err)
	}
	if rf3.Count() != 10 {
		t.Fatalf("count after abort = %d, want 10", rf3.Count())
	}
	check.Commit()
}

// TestReadForUpdateQueuesInsteadOfDeadlocking: two scheduler procs each
// read-modify-write the same page. Read through ReadPageForUpdate, the second
// proc queues behind the first one's write lock and both commit first time
// with no upgrade and no deadlock. The same scenario through plain ReadPage
// leaves both holding the shared lock the other's upgrade waits for, and
// exactly one is the victim: the read mode is what makes the difference. A
// snapshot store has no for-update arm: pagestore.ReadForUpdate falls back to
// its lock-free ReadPage.
func TestReadForUpdateQueuesInsteadOfDeadlocking(t *testing.T) {
	for _, tc := range []struct {
		name                string
		read                func(st pagestore.Store, n int64, p []byte) error
		deadlocks, upgrades int64
	}{
		{"for-update", pagestore.ReadForUpdate, 0, 0},
		{"plain", pagestore.Store.ReadPage, 1, 3}, // every attempt upgrades, the victim's retry too
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newRig(t, "lfs")
			db, err := rig.env.OpenDB("/db")
			if err != nil {
				t.Fatal(err)
			}
			setup := rig.env.Begin()
			if _, err := setup.Store(db).AllocPage(); err != nil {
				t.Fatal(err)
			}
			if err := setup.Commit(); err != nil {
				t.Fatal(err)
			}
			before := rig.env.LockStats()

			attempts := 0
			increment := func() {
				for {
					attempts++
					txn := rig.env.Begin()
					st := txn.Store(db)
					page := make([]byte, st.PageSize())
					err := tc.read(st, 0, page)
					if err == nil {
						// Let the other proc read before this one writes.
						rig.clk.Advance(time.Millisecond)
						rig.clk.Yield()
						page[0]++
						err = st.WritePage(0, page)
					}
					if err == nil {
						err = txn.Commit()
					}
					if err == nil {
						return
					}
					txn.Abort()
					if !errors.Is(err, lock.ErrDeadlock) {
						t.Error(err)
						return
					}
				}
			}
			s := sim.NewScheduler(rig.clk)
			s.Spawn("proc-0", increment)
			s.Spawn("proc-1", increment)
			s.Run()

			ls := rig.env.LockStats()
			if d, u := ls.Deadlocks-before.Deadlocks, ls.Upgrades-before.Upgrades; d != tc.deadlocks ||
				u != tc.upgrades || ls.UpgradeDeadlocks != tc.deadlocks || int64(attempts) != 2+tc.deadlocks {
				t.Fatalf("%d deadlocks (%d on upgrades), %d upgrades, %d attempts; want %d, %d, %d, %d",
					d, ls.UpgradeDeadlocks, u, attempts, tc.deadlocks, tc.deadlocks, tc.upgrades, 2+tc.deadlocks)
			}

			// A writer holds the page's write lock; the snapshot read neither
			// waits for it nor takes a lock of its own, and sees committed data.
			writer := rig.env.Begin()
			page := make([]byte, writer.Store(db).PageSize())
			page[0] = 99
			if err := writer.Store(db).WritePage(0, page); err != nil {
				t.Fatal(err)
			}
			snap := rig.env.BeginSnapshot()
			defer snap.Close()
			if _, ok := snap.Store(db).(pagestore.UpdateReader); ok {
				t.Fatal("a snapshot store must not offer ReadPageForUpdate")
			}
			held := rig.env.LockStats().Acquired
			if err := pagestore.ReadForUpdate(snap.Store(db), 0, page); err != nil || page[0] != 2 {
				t.Fatalf("snapshot read = %d, %v; want the two committed increments", page[0], err)
			}
			if got := rig.env.LockStats().Acquired; got != held {
				t.Fatalf("snapshot read took %d lock(s)", got-held)
			}
			writer.Abort()
		})
	}
}
