package libtp

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/btree"
	"repro/internal/disk"
	"repro/internal/ffs"
	"repro/internal/lfs"
	"repro/internal/lock"
	"repro/internal/recno"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// testRig bundles a device + file system + environment.
type testRig struct {
	clk *sim.Clock
	dev *disk.Device
	fs  vfs.FileSystem
	env *Env
}

func newRig(t *testing.T, fsKind string) *testRig {
	t.Helper()
	clk := sim.NewClock()
	dev := disk.New(sim.SmallModel(), clk)
	var fsys vfs.FileSystem
	var err error
	switch fsKind {
	case "lfs":
		fsys, err = lfs.Format(dev, clk, lfs.Options{})
	case "ffs":
		fsys, err = ffs.Format(dev, clk, ffs.Options{})
	default:
		t.Fatalf("unknown fs %q", fsKind)
	}
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(fsys, clk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{clk: clk, dev: dev, fs: fsys, env: env}
}

func TestCommitVisible(t *testing.T) {
	for _, kind := range []string{"lfs", "ffs"} {
		t.Run(kind, func(t *testing.T) {
			rig := newRig(t, kind)
			db, err := rig.env.OpenDB("/db")
			if err != nil {
				t.Fatal(err)
			}
			txn := rig.env.Begin()
			tr, err := btree.Create(txn.Store(db))
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Put([]byte("k"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
			// A later transaction sees the data.
			txn2 := rig.env.Begin()
			tr2, err := btree.Open(txn2.Store(db))
			if err != nil {
				t.Fatal(err)
			}
			v, err := tr2.Get([]byte("k"))
			if err != nil || string(v) != "v" {
				t.Fatalf("Get = %q, %v", v, err)
			}
			txn2.Commit()
		})
	}
}

func TestAbortRollsBack(t *testing.T) {
	rig := newRig(t, "lfs")
	db, _ := rig.env.OpenDB("/db")
	setup := rig.env.Begin()
	tr, err := btree.Create(setup.Store(db))
	if err != nil {
		t.Fatal(err)
	}
	tr.Put([]byte("stable"), []byte("1"))
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	txn := rig.env.Begin()
	tr, err = btree.Open(txn.Store(db))
	if err != nil {
		t.Fatal(err)
	}
	tr.Put([]byte("stable"), []byte("2"))
	tr.Put([]byte("extra"), []byte("x"))
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}

	check := rig.env.Begin()
	tr2, err := btree.Open(check.Store(db))
	if err != nil {
		t.Fatal(err)
	}
	v, err := tr2.Get([]byte("stable"))
	if err != nil || string(v) != "1" {
		t.Fatalf("stable = %q, %v (abort did not roll back)", v, err)
	}
	if _, err := tr2.Get([]byte("extra")); !errors.Is(err, btree.ErrNotFound) {
		t.Fatalf("extra should not exist: %v", err)
	}
	check.Commit()
}

func TestAbortReleasesLocks(t *testing.T) {
	rig := newRig(t, "lfs")
	db, _ := rig.env.OpenDB("/db")
	setup := rig.env.Begin()
	tr, _ := btree.Create(setup.Store(db))
	tr.Put([]byte("a"), []byte("1"))
	setup.Commit()

	txn := rig.env.Begin()
	tr1, _ := btree.Open(txn.Store(db))
	tr1.Put([]byte("a"), []byte("2"))
	if rig.env.locks.HeldCount(lock.TxnID(txn.ID())) == 0 {
		t.Fatal("locks should be held mid-transaction")
	}
	txn.Abort()
	if rig.env.locks.HeldCount(lock.TxnID(txn.ID())) != 0 {
		t.Fatal("abort must release all locks")
	}
}

func TestTxnDoneRejected(t *testing.T) {
	rig := newRig(t, "lfs")
	db, _ := rig.env.OpenDB("/db")
	txn := rig.env.Begin()
	btree.Create(txn.Store(db))
	txn.Commit()
	if err := txn.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double commit: %v", err)
	}
	if err := txn.Abort(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("abort after commit: %v", err)
	}
	st := txn.Store(db)
	if err := st.ReadPage(0, make([]byte, 4096)); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("read after commit: %v", err)
	}
}

func TestRecnoUnderTxn(t *testing.T) {
	rig := newRig(t, "lfs")
	db, _ := rig.env.OpenDB("/hist")
	txn := rig.env.Begin()
	rf, err := recno.Create(txn.Store(db), 64)
	if err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte{7}, 64)
	if _, err := rf.Append(rec); err != nil {
		t.Fatal(err)
	}
	txn.Commit()

	txn2 := rig.env.Begin()
	rf2, err := recno.Open(txn2.Store(db))
	if err != nil {
		t.Fatal(err)
	}
	got, err := rf2.Get(0)
	if err != nil || !bytes.Equal(got, rec) {
		t.Fatalf("Get = %v, %v", got, err)
	}
	txn2.Commit()
}

// crashAndRecover simulates a whole-machine crash on LFS: the file system
// and environment are abandoned, the device is remounted, and LIBTP
// recovery replays the WAL.
func crashAndRecover(t *testing.T, rig *testRig, dbPaths []string) (*Env, *RecoveryReport) {
	t.Helper()
	fs2, err := lfs.Mount(rig.dev, rig.clk, lfs.Options{})
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	env2, rep, err := RecoverPaths(fs2, rig.clk, Options{}, dbPaths)
	if err != nil {
		t.Fatalf("RecoverPaths: %v", err)
	}
	return env2, rep
}

func TestCrashRecoveryCommittedSurvives(t *testing.T) {
	rig := newRig(t, "lfs")
	db, _ := rig.env.OpenDB("/db")
	txn := rig.env.Begin()
	tr, _ := btree.Create(txn.Store(db))
	for i := 0; i < 50; i++ {
		tr.Put([]byte(fmt.Sprintf("key%02d", i)), []byte(fmt.Sprintf("val%02d", i)))
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	// Crash: database pages were never flushed; only the WAL was forced.
	env2, rep := crashAndRecover(t, rig, []string{"/db"})
	if rep.Winners != 1 {
		t.Fatalf("winners = %d, want 1", rep.Winners)
	}
	db2, err := env2.OpenDB("/db")
	if err != nil {
		t.Fatal(err)
	}
	check := env2.Begin()
	tr2, err := btree.Open(check.Store(db2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		v, err := tr2.Get([]byte(fmt.Sprintf("key%02d", i)))
		if err != nil || string(v) != fmt.Sprintf("val%02d", i) {
			t.Fatalf("key%02d lost after crash: %q %v", i, v, err)
		}
	}
	check.Commit()
}

func TestCrashRecoveryUncommittedUndone(t *testing.T) {
	rig := newRig(t, "lfs")
	db, _ := rig.env.OpenDB("/db")
	setup := rig.env.Begin()
	tr, _ := btree.Create(setup.Store(db))
	tr.Put([]byte("k"), []byte("committed"))
	setup.Commit()
	// Push committed state to disk, then start a transaction that dirties
	// pages and force its updates into the log WITHOUT committing.
	if err := rig.env.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	loser := rig.env.Begin()
	trL, _ := btree.Open(loser.Store(db))
	trL.Put([]byte("k"), []byte("uncommitted"))
	rig.env.log.Force() // updates durable, commit record absent
	// Worse: evict the dirty page to the database file, as a steal policy
	// allows.
	rig.env.pool.FlushAll()
	db.f.Sync()

	env2, rep := crashAndRecover(t, rig, []string{"/db"})
	if rep.Losers != 1 {
		t.Fatalf("losers = %d, want 1", rep.Losers)
	}
	db2, _ := env2.OpenDB("/db")
	check := env2.Begin()
	tr2, err := btree.Open(check.Store(db2))
	if err != nil {
		t.Fatal(err)
	}
	v, err := tr2.Get([]byte("k"))
	if err != nil || string(v) != "committed" {
		t.Fatalf("k = %q, %v; loser's write must be undone", v, err)
	}
	check.Commit()
}

func TestCheckpointTruncatesLog(t *testing.T) {
	rig := newRig(t, "lfs")
	db, _ := rig.env.OpenDB("/db")
	txn := rig.env.Begin()
	tr, _ := btree.Create(txn.Store(db))
	tr.Put([]byte("a"), []byte("b"))
	txn.Commit()
	if err := rig.env.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint's own record is the log's resting state; everything
	// before it is truncated away.
	recs, err := rig.env.log.Scan()
	if err != nil || len(recs) != 1 || recs[0].Type != wal.RecCheckpoint {
		t.Fatalf("log after checkpoint: %d records, %v", len(recs), err)
	}
	// Data survives without any WAL: it is in the database file now.
	env2, rep := crashAndRecover(t, rig, []string{"/db"})
	if rep.Winners != 0 || rep.Losers != 0 {
		t.Fatalf("recovery after checkpoint should be empty: %+v", rep)
	}
	db2, _ := env2.OpenDB("/db")
	check := env2.Begin()
	tr2, err := btree.Open(check.Store(db2))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := tr2.Get([]byte("a")); err != nil || string(v) != "b" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	check.Commit()
}

func TestCheckpointRequiresQuiescence(t *testing.T) {
	rig := newRig(t, "lfs")
	txn := rig.env.Begin()
	if err := rig.env.Checkpoint(); !errors.Is(err, ErrTxnActive) {
		t.Fatalf("got %v, want ErrTxnActive", err)
	}
	txn.Commit()
}

// TestFailedForceDoesNotWedge: a commit whose log force fails returns the
// error — and finishes the transaction all the same. Its locks are released
// and its bookkeeping dropped, so once the device works again the environment
// checkpoints and the next writer of the same page gets its lock.
func TestFailedForceDoesNotWedge(t *testing.T) {
	rig := newRig(t, "lfs")
	db, _ := rig.env.OpenDB("/db")
	setup := rig.env.Begin()
	tr, _ := btree.Create(setup.Store(db))
	tr.Put([]byte("k"), []byte("v0"))
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	put := func(val string) *Txn {
		txn := rig.env.Begin()
		tr, err := btree.Open(txn.Store(db))
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Put([]byte("k"), []byte(val)); err != nil {
			t.Fatal(err)
		}
		return txn
	}

	errIO := errors.New("injected write error")
	rig.dev.SetFault(func(op string, _ int64) error {
		if op == "write" {
			return errIO
		}
		return nil
	})
	txn := put("v1")
	if err := txn.Commit(); !errors.Is(err, errIO) {
		t.Fatalf("Commit with a failing force = %v, want the injected error", err)
	}
	rig.dev.SetFault(nil)

	if err := txn.Abort(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Abort after the failed commit = %v, want ErrTxnDone", err)
	}
	if n := rig.env.locks.HeldCount(lock.TxnID(txn.ID())); n != 0 {
		t.Fatalf("the failed commit still holds %d locks", n)
	}
	if st := rig.env.Stats(); st.Committed != 1 {
		t.Fatalf("Committed = %d, want 1: a commit that returned an error is not counted", st.Committed)
	}
	if err := rig.env.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after the fault cleared: %v", err)
	}
	waits := rig.env.LockStats().Waited
	if err := put("v2").Commit(); err != nil {
		t.Fatal(err)
	}
	if got := rig.env.LockStats().Waited; got != waits {
		t.Fatalf("the next writer waited for a lock (%d waits)", got-waits)
	}
}

func TestSimulatedTimeAdvances(t *testing.T) {
	rig := newRig(t, "lfs")
	db, _ := rig.env.OpenDB("/db")
	before := rig.clk.Now()
	txn := rig.env.Begin()
	tr, _ := btree.Create(txn.Store(db))
	tr.Put([]byte("k"), []byte("v"))
	txn.Commit()
	if rig.clk.Now() <= before {
		t.Fatal("transaction work must consume simulated time")
	}
}

func TestUserSyncCostsMoreThanFastSync(t *testing.T) {
	// The §5.1 effect in miniature: the same workload under Sprite costs
	// (no test-and-set) takes longer than under fast-user-sync costs.
	run := func(costs sim.CostModel) (elapsed int64) {
		clk := sim.NewClock()
		dev := disk.New(sim.SmallModel(), clk)
		fsys, _ := lfs.Format(dev, clk, lfs.Options{})
		env, _ := NewEnv(fsys, clk, Options{Costs: costs})
		db, _ := env.OpenDB("/db")
		setup := env.Begin()
		tr, _ := btree.Create(setup.Store(db))
		tr.Put([]byte("init"), []byte("x"))
		setup.Commit()
		start := clk.Now()
		for i := 0; i < 50; i++ {
			txn := env.Begin()
			tr, _ := btree.Open(txn.Store(db))
			tr.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
			txn.Commit()
		}
		return int64(clk.Now() - start)
	}
	slow := run(sim.SpriteCosts())
	fast := run(sim.FastSyncCosts())
	if slow <= fast {
		t.Fatalf("Sprite sync costs (%d) should exceed fast-sync costs (%d)", slow, fast)
	}
}
