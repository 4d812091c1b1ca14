package libtp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/lfs"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// writeBackWatch wraps a database file as the buffer manager's write-back
// target. At each page write it notes whether the log was durable through
// need, the end of the record the test expects on that page, then syncs the
// page into its file and images the device: a crash right after the write.
type writeBackWatch struct {
	vfs.File
	env    *Env
	dev    *disk.Device
	need   wal.LSN
	writes []watchedWrite
}

type watchedWrite struct {
	page    int64
	durable bool   // the log was durable through need when the page reached the file
	image   []byte // the device right after the write
}

func (w *writeBackWatch) WriteAt(p []byte, off int64) (int, error) {
	durable := w.env.log.DurableThrough(w.need)
	n, err := w.File.WriteAt(p, off)
	if err != nil {
		return n, err
	}
	if err := w.File.Sync(); err != nil {
		return n, err
	}
	var img bytes.Buffer
	if err := w.dev.SaveImage(&img); err != nil {
		return n, err
	}
	w.writes = append(w.writes, watchedWrite{page: off / int64(len(p)), durable: durable, image: img.Bytes()})
	return n, nil
}

// walRuleRig is an LFS environment whose pool holds two pages, over a
// committed, checkpointed database of four zeroed pages whose write-backs a
// writeBackWatch sees.
func walRuleRig(t *testing.T, groupCommit int) (*testRig, *DB, *writeBackWatch) {
	t.Helper()
	clk := sim.NewClock()
	dev := disk.New(sim.SmallModel(), clk)
	fsys, err := lfs.Format(dev, clk, lfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(fsys, clk, Options{CacheBlocks: 2, GroupCommit: groupCommit})
	if err != nil {
		t.Fatal(err)
	}
	db, err := env.OpenDB("/db")
	if err != nil {
		t.Fatal(err)
	}
	setup := env.Begin()
	for i := 0; i < 4; i++ {
		if _, err := setup.Store(db).AllocPage(); err != nil {
			t.Fatal(err)
		}
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := env.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	watch := &writeBackWatch{File: env.files[db.id], env: env, dev: dev}
	env.files[db.id] = watch
	return &testRig{clk: clk, dev: dev, fs: fsys, env: env}, db, watch
}

// writePage has txn write v at the head of page n and returns the log's end
// just after the update record.
func writePage(t *testing.T, txn *Txn, db *DB, n int64, v string) wal.LSN {
	t.Helper()
	p := make([]byte, txn.env.pool.BlockSize())
	copy(p, v)
	if err := txn.Store(db).WritePage(n, p); err != nil {
		t.Fatal(err)
	}
	return txn.env.log.End()
}

// evictWith has txn read pages 2 and 3, which pushes every older page out of
// the two-page pool.
func evictWith(t *testing.T, txn *Txn, db *DB) {
	t.Helper()
	p := make([]byte, txn.env.pool.BlockSize())
	for _, n := range []int64{2, 3} {
		if err := txn.Store(db).ReadPage(n, p); err != nil {
			t.Fatal(err)
		}
	}
}

// recoveredHead boots a device image through LFS roll-forward and LIBTP
// recovery and returns the head of page n as recovered, with the report.
func recoveredHead(t *testing.T, image []byte, n int64, size int) (string, *RecoveryReport) {
	t.Helper()
	clk := sim.NewClock()
	dev, err := disk.LoadImage(sim.SmallModel(), clk, bytes.NewReader(image))
	if err != nil {
		t.Fatal(err)
	}
	fsys, err := lfs.Mount(dev, clk, lfs.Options{})
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	env, rep, err := RecoverPaths(fsys, clk, Options{}, []string{"/db"})
	if err != nil {
		t.Fatalf("RecoverPaths: %v", err)
	}
	db, err := env.OpenDB("/db")
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, env.pool.BlockSize())
	txn := env.Begin()
	if err := txn.Store(db).ReadPage(n, p); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	return string(bytes.TrimRight(p[:size], "\x00")), rep
}

// TestWriteBackForcesOnlyThroughThePage: the WAL rule is per page. A dirty
// page whose last record is durable goes to its file with no log force, even
// while another transaction's record waits in the log; a
// page carrying an active transaction's update (a steal), or a pre-committed
// member's of a group-commit batch still open, forces the log first, so the
// log is durable through that record when the page reaches the file. A
// crash right after the write recovers what the log says: the stolen update
// is undone, the batch member — made durable by the write-back's force — is
// redone.
func TestWriteBackForcesOnlyThroughThePage(t *testing.T) {
	t.Run("durable", func(t *testing.T) {
		rig, db, watch := walRuleRig(t, 1)
		env := rig.env
		a := env.Begin()
		watch.need = writePage(t, a, db, 0, "a1")
		if err := a.Commit(); err != nil {
			t.Fatal(err)
		}
		forces := env.LogStats().Forces
		// B's update leaves the log with a record that is not durable, and
		// B's read of page 3 evicts page 0.
		b := env.Begin()
		writePage(t, b, db, 2, "b1")
		p := make([]byte, env.pool.BlockSize())
		if err := b.Store(db).ReadPage(3, p); err != nil {
			t.Fatal(err)
		}
		if len(watch.writes) != 1 || watch.writes[0].page != 0 || !watch.writes[0].durable {
			t.Fatalf("write-backs %+v, want page 0 once, its record durable", watch.writes)
		}
		if got := env.LogStats().Forces - forces; got != 0 {
			t.Fatalf("writing back a page whose records are durable forced the log %d times", got)
		}
		if st := env.Stats(); st.WriteBackSkips != 1 || st.WriteBackForces != 0 {
			t.Fatalf("write-back skips %d, forces %d; want 1, 0", st.WriteBackSkips, st.WriteBackForces)
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("steal", func(t *testing.T) {
		rig, db, watch := walRuleRig(t, 1)
		env := rig.env
		c := env.Begin()
		watch.need = writePage(t, c, db, 1, "c1")
		forces := env.LogStats().Forces
		evictWith(t, c, db)
		if len(watch.writes) != 1 || watch.writes[0].page != 1 {
			t.Fatalf("write-backs %+v, want page 1 once", watch.writes)
		}
		if !watch.writes[0].durable {
			t.Fatal("a stolen page reached its file before its update record was durable")
		}
		if got := env.LogStats().Forces - forces; got != 1 {
			t.Fatalf("the steal forced the log %d times, want 1", got)
		}
		if st := env.Stats(); st.WriteBackForces != 1 || st.WriteBackSkips != 0 {
			t.Fatalf("write-back forces %d, skips %d; want 1, 0", st.WriteBackForces, st.WriteBackSkips)
		}
		got, rep := recoveredHead(t, watch.writes[0].image, 1, 2)
		if got != "" || rep.Losers != 1 {
			t.Fatalf("after a crash right after the steal page 1 reads %q with %d losers; want it undone", got, rep.Losers)
		}
	})

	t.Run("open-batch", func(t *testing.T) {
		rig, db, watch := walRuleRig(t, 2)
		env := rig.env
		committing := false
		var forces int64
		runProcs(rig, func() {
			p := env.Begin()
			watch.need = writePage(t, p, db, 1, "p1")
			committing = true
			forces = env.LogStats().Forces
			if err := p.Commit(); err != nil { // sleeps for the second member
				t.Error(err)
			}
		}, func() {
			for !committing {
				rig.clk.Advance(time.Millisecond)
				rig.clk.Yield()
			}
			q := env.Begin()
			evictWith(t, q, db)
			if err := q.Commit(); err != nil {
				t.Error(err)
			}
		})
		if len(watch.writes) != 1 || watch.writes[0].page != 1 {
			t.Fatalf("write-backs %+v, want page 1 once", watch.writes)
		}
		if !watch.writes[0].durable {
			t.Fatal("a pre-committed page reached its file before its update record was durable")
		}
		if st := env.Stats(); st.WriteBackForces != 1 || st.WriteBackSkips != 0 {
			t.Fatalf("write-back forces %d, skips %d; want 1, 0", st.WriteBackForces, st.WriteBackSkips)
		}
		// The write-back's force, then the batch's.
		if got := env.LogStats().Forces - forces; got != 2 {
			t.Fatalf("%d log forces, want 2", got)
		}
		got, rep := recoveredHead(t, watch.writes[0].image, 1, 2)
		if got != "p1" || rep.Winners != 1 || rep.Losers != 0 {
			t.Fatalf("after a crash right after the write-back page 1 reads %q (%d winners, %d losers); want p1 redone",
				got, rep.Winners, rep.Losers)
		}
	})
}
