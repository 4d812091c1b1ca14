package libtp

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/lfs"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// TestSnapshotIsolation: a snapshot pinned between two committed updates
// keeps reading the first value — through a btree, lock-free — while later
// commits, in-flight writers, and even an eventual abort leave its image
// untouched.
func TestSnapshotIsolation(t *testing.T) {
	for _, kind := range []string{"lfs", "ffs"} {
		t.Run(kind, func(t *testing.T) {
			rig := newRig(t, kind)
			db, err := rig.env.OpenDB("/db")
			if err != nil {
				t.Fatal(err)
			}
			setup := rig.env.Begin()
			tr, err := btree.Create(setup.Store(db))
			if err != nil {
				t.Fatal(err)
			}
			tr.Put([]byte("acct"), []byte("100"))
			if err := setup.Commit(); err != nil {
				t.Fatal(err)
			}

			snap := rig.env.BeginSnapshot()
			defer snap.Close()

			// Committed after the pin: invisible.
			upd := rig.env.Begin()
			tru, err := btree.Open(upd.Store(db))
			if err != nil {
				t.Fatal(err)
			}
			tru.Put([]byte("acct"), []byte("200"))
			tru.Put([]byte("new"), []byte("x"))
			if err := upd.Commit(); err != nil {
				t.Fatal(err)
			}

			// Still in flight at read time, then aborted: also invisible.
			fly := rig.env.Begin()
			trf, err := btree.Open(fly.Store(db))
			if err != nil {
				t.Fatal(err)
			}
			trf.Put([]byte("acct"), []byte("300"))

			trs, err := btree.Open(snap.Store(db))
			if err != nil {
				t.Fatalf("btree over snapshot store: %v", err)
			}
			v, err := trs.Get([]byte("acct"))
			if err != nil || string(v) != "100" {
				t.Fatalf("snapshot Get(acct) = %q, %v; want the pinned value 100", v, err)
			}
			if _, err := trs.Get([]byte("new")); !errors.Is(err, btree.ErrNotFound) {
				t.Fatalf("snapshot sees a post-pin insert: %v", err)
			}
			if err := fly.Abort(); err != nil {
				t.Fatal(err)
			}

			// A fresh transaction sees the committed update, not the abort.
			check := rig.env.Begin()
			trc, err := btree.Open(check.Store(db))
			if err != nil {
				t.Fatal(err)
			}
			v, err = trc.Get([]byte("acct"))
			if err != nil || string(v) != "200" {
				t.Fatalf("current Get(acct) = %q, %v; want 200", v, err)
			}
			check.Commit()

			// A new pin sees current data.
			snap.Close()
			snap2 := rig.env.BeginSnapshot()
			defer snap2.Close()
			trs2, err := btree.Open(snap2.Store(db))
			if err != nil {
				t.Fatal(err)
			}
			v, err = trs2.Get([]byte("acct"))
			if err != nil || string(v) != "200" {
				t.Fatalf("fresh snapshot Get(acct) = %q, %v; want 200", v, err)
			}
		})
	}
}

// TestFirstPinSeesPreCommitted: a transaction whose commit record is in the
// log before the first snapshot pins is visible to it while it still waits
// for its group force. Its undo must not seed the version store: no commit
// would ever stamp those deltas, so the snapshot would rewind the
// transaction, and with it a later committed writer of the same bytes.
func TestFirstPinSeesPreCommitted(t *testing.T) {
	clk := sim.NewClock()
	dev := disk.New(sim.SmallModel(), clk)
	fsys, err := lfs.Format(dev, clk, lfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(fsys, clk, Options{GroupCommit: 2})
	if err != nil {
		t.Fatal(err)
	}
	rig := &testRig{clk: clk, dev: dev, fs: fsys, env: env}
	db, err := env.OpenDB("/db")
	if err != nil {
		t.Fatal(err)
	}
	put := func(txn *Txn, v string) {
		tr, err := btree.Open(txn.Store(db))
		if err == nil {
			err = tr.Put([]byte("acct"), []byte(v))
		}
		if err != nil {
			t.Error(err)
		}
	}
	get := func(s *Snapshot) string {
		tr, err := btree.Open(s.Store(db))
		if err != nil {
			t.Error(err)
			return ""
		}
		v, err := tr.Get([]byte("acct"))
		if err != nil {
			t.Error(err)
		}
		return string(v)
	}
	setup := env.Begin()
	if _, err := btree.Create(setup.Store(db)); err != nil {
		t.Fatal(err)
	}
	put(setup, "100")
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	committing := false
	var snap *Snapshot
	runProcs(rig, func() {
		t1 := env.Begin()
		put(t1, "200")
		committing = true
		if err := t1.Commit(); err != nil { // waits for the second committer
			t.Error(err)
		}
	}, func() {
		for !committing {
			clk.Advance(time.Millisecond)
			clk.Yield()
		}
		snap = env.BeginSnapshot()
		if v := get(snap); v != "200" {
			t.Errorf("a snapshot pinned after a commit record reads %q, want 200", v)
		}
		t2 := env.Begin()
		put(t2, "250")
		if err := t2.Commit(); err != nil {
			t.Error(err)
		}
	})
	defer snap.Close()
	if v := get(snap); v != "200" {
		t.Errorf("after a later commit the snapshot reads %q, want 200", v)
	}
	later := env.BeginSnapshot()
	defer later.Close()
	if v := get(later); v != "250" {
		t.Errorf("a snapshot pinned after both commits reads %q, want 250", v)
	}
}

// TestSnapshotScannersShareReads is the LIBTP twin of
// core.TestSnapshotPeerWindows: two snapshot stores pinned at one horizon
// scan one cold file side by side, with no writers. The second scanner finds
// each page in the kernel cache while the first one's read of it is still in
// flight, and waits for that read instead of running ahead to queue its own:
// the pair makes the device reads of one scan, and neither ever queues
// behind the other.
func TestSnapshotScannersShareReads(t *testing.T) {
	const pages = 24
	clk := sim.NewClock()
	dev := disk.New(sim.SmallModel(), clk)
	fsys, err := lfs.Format(dev, clk, lfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(fsys, clk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rig := &testRig{clk: clk, dev: dev, fs: fsys, env: env}
	db, err := env.OpenDB("/db")
	if err != nil {
		t.Fatal(err)
	}
	setup := env.Begin()
	st := setup.Store(db)
	ps := st.PageSize()
	for i := range pages {
		n, err := st.AllocPage()
		if err == nil {
			err = st.WritePage(n, bytes.Repeat([]byte{byte(i + 1)}, ps))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := env.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cold := func() {
		t.Helper()
		if err := fsys.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := env.pool.InvalidateFile(vfs.FileID(db.id)); err != nil {
			t.Fatal(err)
		}
		if err := fsys.Pool().InvalidateFile(vfs.FileID(db.id)); err != nil {
			t.Fatal(err)
		}
	}
	scan := func(s *Snapshot) func() {
		store := s.Store(db)
		return func() {
			p := make([]byte, ps)
			for n := range int64(pages) {
				if err := store.ReadPage(n, p); err != nil {
					t.Error(err)
					return
				}
				if p[0] != byte(n+1) || p[ps-1] != byte(n+1) {
					t.Errorf("page %d reads %d", n, p[0])
					return
				}
			}
		}
	}
	snap := env.BeginSnapshot()
	defer snap.Close()

	cold()
	d0 := dev.Stats()
	runProcs(rig, scan(snap))
	alone := dev.Stats().Reads - d0.Reads

	cold()
	d0 = dev.Stats()
	runProcs(rig, scan(snap), scan(snap))
	d1 := dev.Stats()
	if reads := d1.Reads - d0.Reads; reads != alone {
		t.Fatalf("two scanners made %d device reads, one alone %d", reads, alone)
	}
	if q := d1.QueueTime - d0.QueueTime; q != 0 {
		t.Fatalf("the scanners queued %v behind each other's reads, want 0", q)
	}
}

// TestSnapshotReadWaitsForBusyBuffer: a snapshot read that finds its page in
// the user pool while another client's read of it is still in flight, in
// simulated time, waits for that read (buffer.Pool.Await).
func TestSnapshotReadWaitsForBusyBuffer(t *testing.T) {
	rig := newRig(t, "lfs")
	db, err := rig.env.OpenDB("/db")
	if err != nil {
		t.Fatal(err)
	}
	snap := rig.env.BeginSnapshot()
	defer snap.Close()
	st := snap.Store(db)
	page := bytes.Repeat([]byte{7}, st.PageSize())
	var fetched, took time.Duration
	runProcs(rig, func() {
		b, err := rig.env.pool.Get(buffer.BlockID{File: vfs.FileID(db.id), Block: 0}, func(_ buffer.BlockID, dst []byte) error {
			rig.clk.Advance(10 * time.Millisecond) // a read in flight
			copy(dst, page)
			return nil
		})
		if err != nil {
			t.Error(err)
			return
		}
		fetched = rig.clk.Now()
		rig.env.pool.Release(b)
	}, func() {
		rig.clk.Advance(time.Microsecond) // the other client goes first
		rig.clk.Yield()
		got := make([]byte, len(page))
		if err := st.ReadPage(0, got); err != nil {
			t.Error(err)
		}
		took = rig.clk.Now()
		if !bytes.Equal(got, page) {
			t.Error("page 0 through the snapshot differs from the pool's")
		}
	})
	if took < fetched {
		t.Fatalf("the snapshot read page 0 at %v, before the read that brought it in completed at %v", took, fetched)
	}
}
