package libtp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/lock"
	"repro/internal/pagestore"
	"repro/internal/recno"
	"repro/internal/sim"
)

// runProcs runs the bodies as virtual processes of one scheduler, spawned in
// argument order (so ties in virtual time dispatch in that order).
func runProcs(rig *testRig, bodies ...func()) {
	s := sim.NewScheduler(rig.clk)
	for i, body := range bodies {
		s.Spawn(fmt.Sprintf("proc-%d", i), body)
	}
	s.Run()
}

// TestConcurrentTxnsNoLostUpdates drives several processes through
// conflicting increments with deadlock-retry; the final counter must equal
// the number of successful commits, and a second run must wait, deadlock and
// commit exactly as the first did.
func TestConcurrentTxnsNoLostUpdates(t *testing.T) {
	const workers, perWorker = 5, 12
	run := func() (final, committed int64, locks lock.Stats) {
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
		tr.Put([]byte("counter"), make([]byte, 8))
		if err := setup.Commit(); err != nil {
			t.Fatal(err)
		}

		worker := func() {
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
					nv := binary.LittleEndian.AppendUint64(nil, binary.LittleEndian.Uint64(v)+1)
					if err := tr.Put([]byte("counter"), nv); err != nil {
						txn.Abort()
						continue
					}
					if err := txn.Commit(); err != nil {
						t.Error(err)
						return
					}
					committed++
					break
				}
			}
		}
		runProcs(rig, slices.Repeat([]func(){worker}, workers)...)
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
		return int64(binary.LittleEndian.Uint64(v)), committed, rig.env.LockStats()
	}
	final, committed, locks := run()
	if final != committed || final == 0 {
		t.Fatalf("counter = %d, commits = %d: lost updates", final, committed)
	}
	if f2, c2, l2 := run(); f2 != final || c2 != committed || l2 != locks {
		t.Fatalf("two runs differ: %d of %d, %+v; then %d of %d, %+v", final, committed, locks, f2, c2, l2)
	}
	t.Logf("%d of %d increments committed; %+v", committed, workers*perWorker, locks)
}

// TestDeadlockSurfacesToCaller: two transactions locking two pages in
// opposite order; the one that closes the cycle receives ErrDeadlock through
// the store interface, and its abort lets the other proceed.
func TestDeadlockSurfacesToCaller(t *testing.T) {
	rig := newRig(t, "lfs")
	db, _ := rig.env.OpenDB("/db")
	setup := rig.env.Begin()
	st := setup.Store(db)
	for range 2 { // two pages
		if _, err := st.AllocPage(); err != nil {
			t.Fatal(err)
		}
	}
	page := make([]byte, st.PageSize())
	st.WritePage(0, page)
	st.WritePage(1, page)
	setup.Commit()

	// Each writes its own page at once and the other's after a delay: t1
	// blocks on t2's lock first, then t2 closes the cycle.
	var err1, err2 error
	crossing := func(txn *Txn, mine, other int64, delay time.Duration, err *error) func() {
		return func() {
			s := txn.Store(db)
			if e := s.WritePage(mine, page); e != nil {
				t.Error(e)
			}
			rig.clk.Advance(delay)
			rig.clk.Yield()
			if *err = s.WritePage(other, page); *err != nil {
				txn.Abort() // the victim: its abort unblocks the winner
				return
			}
			if e := txn.Commit(); e != nil {
				t.Error(e)
			}
		}
	}
	runProcs(rig,
		crossing(rig.env.Begin(), 0, 1, time.Second, &err1),
		crossing(rig.env.Begin(), 1, 0, 2*time.Second, &err2))
	if err1 != nil || !errors.Is(err2, lock.ErrDeadlock) {
		t.Fatalf("t1: %v, t2: %v; want t2 the deadlock victim and t1 granted", err1, err2)
	}
	if st := rig.env.Stats(); st.Committed != 2 || st.Aborted != 1 {
		t.Fatalf("%d committed, %d aborted; want setup and t1 committed, t2 aborted", st.Committed, st.Aborted)
	}
}

// TestBTreeAbortAcrossSplits runs the B-tree through the transactional
// store: a committed tree, then an aborted transaction that overwrites half
// its keys and inserts enough new ones to split leaves, then crash recovery.
// Neither the abort nor the recovery may leave a trace of the loser.
func TestBTreeAbortAcrossSplits(t *testing.T) {
	const committed, inserted = 120, 400
	key := func(i int) []byte { return []byte{byte(i), byte(i >> 4), byte(i >> 8), 'k'} }
	verify := func(tr *btree.Tree, when string) {
		t.Helper()
		if tr.Count() != committed {
			t.Fatalf("count %s = %d, want %d", when, tr.Count(), committed)
		}
		for i := 0; i < committed; i++ {
			v, err := tr.Get(key(i))
			if err != nil || v[0] != byte(i*3) {
				t.Fatalf("key %d = %v, %v %s", i, v, err, when)
			}
		}
		for i := committed; i < committed+inserted; i++ {
			if _, err := tr.Get(key(i)); !errors.Is(err, btree.ErrNotFound) {
				t.Fatalf("loser's key %d: %v %s, want ErrNotFound", i, err, when)
			}
		}
		if n, err := tr.Check(); err != nil || n != committed {
			t.Fatalf("Check %s = %d, %v", when, n, err)
		}
	}

	rig := newRig(t, "lfs")
	db, _ := rig.env.OpenDB("/tree")
	txn := rig.env.Begin()
	tb, err := btree.Create(txn.Store(db))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < committed; i++ {
		if err := tb.Put(key(i), []byte{byte(i * 3)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	loser := rig.env.Begin()
	tb2, err := btree.Open(loser.Store(db))
	if err != nil {
		t.Fatal(err)
	}
	before, _ := loser.Store(db).NumPages()
	for i := 0; i < committed/2; i++ {
		if err := tb2.Put(key(i), []byte{0xFF}); err != nil {
			t.Fatal(err)
		}
	}
	for i := committed; i < committed+inserted; i++ {
		if err := tb2.Put(key(i), make([]byte, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if after, _ := loser.Store(db).NumPages(); after <= before {
		t.Fatalf("the loser's inserts split no leaf (%d pages before, %d after)", before, after)
	}
	loser.Abort()

	check := rig.env.Begin()
	tb3, err := btree.Open(check.Store(db))
	if err != nil {
		t.Fatal(err)
	}
	verify(tb3, "after abort")
	check.Commit()

	env2, _ := crashAndRecover(t, rig, []string{"/tree"})
	db2, _ := env2.OpenDB("/tree")
	final := env2.Begin()
	tb4, err := btree.Open(final.Store(db2))
	if err != nil {
		t.Fatal(err)
	}
	verify(tb4, "after crash")
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
			runProcs(rig, increment, increment)

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
