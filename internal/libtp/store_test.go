package libtp

import (
	"errors"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/lock"
	"repro/internal/pagestore"
)

// onePageDB returns a database holding a one-level B-tree (its root is its
// only leaf) with key "k", committed.
func onePageDB(t *testing.T, rig *testRig) *DB {
	t.Helper()
	db, err := rig.env.OpenDB("/db")
	if err != nil {
		t.Fatal(err)
	}
	setup := rig.env.Begin()
	tr, err := btree.Create(setup.Store(db))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Put([]byte("k"), []byte("v0")); err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

// requests returns how many lock-manager requests f made.
func requests(t *testing.T, rig *testRig, f func() error) int64 {
	t.Helper()
	before := rig.env.LockStats().Requests
	if err := f(); err != nil {
		t.Fatal(err)
	}
	return rig.env.LockStats().Requests - before
}

// TestPutAfterReadForUpdateRequestsLeafOnce: a read-modify-write of a B-tree
// record write-locks the leaf when GetForUpdate reads it. The Put's descent
// reads the leaf for update again — one request, covered — and its write of
// the leaf makes none: LIBTP puts back a page it holds without asking the lock
// manager again.
func TestPutAfterReadForUpdateRequestsLeafOnce(t *testing.T) {
	rig := newRig(t, "lfs")
	db := onePageDB(t, rig)
	txn := rig.env.Begin()
	tr, err := btree.Open(txn.Store(db))
	if err != nil {
		t.Fatal(err)
	}
	if n := requests(t, rig, func() error { _, err := tr.GetForUpdate([]byte("k")); return err }); n != 1 {
		t.Fatalf("GetForUpdate made %d requests, want 1 (the leaf, for update)", n)
	}
	if n := requests(t, rig, func() error { return tr.Put([]byte("k"), []byte("v1")) }); n != 1 {
		t.Fatalf("Put made %d requests for the leaf, want 1", n)
	}
	// The same at the store: a page read for update is written without a
	// request, however often.
	st := txn.Store(db)
	n, err := st.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, st.PageSize())
	if err := st.(pagestore.UpdateReader).ReadPageForUpdate(n, page); err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		page[0] = byte(i + 1)
		if got := requests(t, rig, func() error { return st.WritePage(n, page) }); got != 0 {
			t.Fatalf("WritePage of a write-locked page made %d requests", got)
		}
	}
	if ls := rig.env.LockStats(); ls.Upgrades != 0 {
		t.Fatalf("%d upgrades, want 0", ls.Upgrades)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	check := rig.env.Begin()
	tr2, err := btree.Open(check.Store(db))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := tr2.Get([]byte("k")); err != nil || string(v) != "v1" {
		t.Fatalf("after commit k = %q, %v", v, err)
	}
	check.Commit()
}

// TestWritePageRequestsWhatItDoesNotHold: a write to a page the transaction
// holds only shared is an upgrade, and a write to a page AllocPage just added
// is a first lock; both go to the lock manager.
func TestWritePageRequestsWhatItDoesNotHold(t *testing.T) {
	rig := newRig(t, "lfs")
	db := onePageDB(t, rig)
	txn := rig.env.Begin()
	st := txn.Store(db)
	page := make([]byte, st.PageSize())
	if err := st.ReadPage(0, page); err != nil {
		t.Fatal(err)
	}
	page[len(page)-1]++
	before := rig.env.LockStats()
	if n := requests(t, rig, func() error { return st.WritePage(0, page) }); n != 1 {
		t.Fatalf("WritePage of a page held shared made %d requests, want 1", n)
	}
	if up := rig.env.LockStats().Upgrades - before.Upgrades; up != 1 {
		t.Fatalf("%d upgrades, want 1", up)
	}

	n, err := st.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	acquired := rig.env.LockStats().Acquired
	if got := requests(t, rig, func() error { return st.WritePage(n, page) }); got != 1 {
		t.Fatalf("WritePage of an allocated page made %d requests, want 1", got)
	}
	if got := rig.env.LockStats().Acquired - acquired; got != 1 {
		t.Fatalf("the allocated page's write acquired %d locks, want 1", got)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestNoLockOutlivesItsTransaction: whether a transaction commits, aborts,
// or loses a deadlock and aborts, it holds no lock afterwards — also on the
// pages it wrote without a request.
func TestNoLockOutlivesItsTransaction(t *testing.T) {
	rig := newRig(t, "lfs")
	db := onePageDB(t, rig)
	held := func(txn *Txn) int { return rig.env.locks.HeldCount(lock.TxnID(txn.ID())) }
	update := func(txn *Txn, val string) {
		tr, err := btree.Open(txn.Store(db))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.GetForUpdate([]byte("k")); err != nil {
			t.Fatal(err)
		}
		if err := tr.Put([]byte("k"), []byte(val)); err != nil {
			t.Fatal(err)
		}
		if held(txn) == 0 {
			t.Fatal("no lock held mid-transaction")
		}
	}
	committed := rig.env.Begin()
	update(committed, "v1")
	if err := committed.Commit(); err != nil {
		t.Fatal(err)
	}
	aborted := rig.env.Begin()
	update(aborted, "v2")
	if err := aborted.Abort(); err != nil {
		t.Fatal(err)
	}
	if held(committed) != 0 || held(aborted) != 0 {
		t.Fatalf("after commit %d locks held, after abort %d", held(committed), held(aborted))
	}

	// Two transactions each write a page of their own, twice (the second
	// write without a request), then the other's: the second to cross is the
	// victim.
	setup := rig.env.Begin()
	var pages [2]int64
	for i := range pages {
		var err error
		if pages[i], err = setup.Store(db).AllocPage(); err != nil {
			t.Fatal(err)
		}
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	var victim *Txn
	crossing := func(txn *Txn, mine, other int64, delay time.Duration) func() {
		return func() {
			st := txn.Store(db)
			page := make([]byte, st.PageSize())
			for range 2 {
				if err := st.WritePage(mine, page); err != nil {
					t.Error(err)
				}
			}
			rig.clk.Advance(delay)
			rig.clk.Yield()
			if err := st.WritePage(other, page); err != nil {
				if !errors.Is(err, lock.ErrDeadlock) {
					t.Error(err)
				}
				victim = txn
				txn.Abort()
				return
			}
			if err := txn.Commit(); err != nil {
				t.Error(err)
			}
		}
	}
	t1, t2 := rig.env.Begin(), rig.env.Begin()
	runProcs(rig, crossing(t1, pages[0], pages[1], time.Second), crossing(t2, pages[1], pages[0], 2*time.Second))
	if victim != t2 {
		t.Fatalf("victim %v, want the second transaction to cross", victim)
	}
	if held(t1) != 0 || held(t2) != 0 {
		t.Fatalf("after the deadlock the winner holds %d locks, the victim %d", held(t1), held(t2))
	}
}
