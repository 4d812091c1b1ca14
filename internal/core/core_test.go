package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/lfs"
	"repro/internal/lock"
	"repro/internal/sim"
)

type rig struct {
	clk *sim.Clock
	dev *disk.Device
	fs  *lfs.FS
	m   *Manager
}

func newRig(t *testing.T, opts Options) *rig {
	t.Helper()
	clk := sim.NewClock()
	dev := disk.New(sim.SmallModel(), clk)
	fsys, err := lfs.Format(dev, clk, lfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{clk: clk, dev: dev, fs: fsys, m: New(fsys, clk, opts)}
}

// mkProtected creates a transaction-protected file with initial contents.
func (r *rig) mkProtected(t *testing.T, path string, data []byte) *File {
	t.Helper()
	f, err := r.m.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	p := r.m.NewProcess()
	if len(data) > 0 {
		if _, err := p.Write(f, data, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.m.Protect(path); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Sync(); err != nil { // durable setup
		t.Fatal(err)
	}
	return f
}

func pat(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*3 + seed
	}
	return b
}

func TestCommitMakesDataVisible(t *testing.T) {
	r := newRig(t, Options{})
	f := r.mkProtected(t, "/db", pat(8192, 1))
	p := r.m.NewProcess()
	if err := p.TxnBegin(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(f, pat(4096, 2), 0); err != nil {
		t.Fatal(err)
	}
	if err := p.TxnCommit(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if _, err := p.Read(f, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pat(4096, 2)) {
		t.Fatal("committed data not visible")
	}
}

func TestAbortRestoresBeforeImage(t *testing.T) {
	r := newRig(t, Options{})
	f := r.mkProtected(t, "/db", pat(8192, 1))
	p := r.m.NewProcess()
	p.TxnBegin()
	if _, err := p.Write(f, pat(4096, 9), 4096); err != nil {
		t.Fatal(err)
	}
	// Mid-transaction, the process sees its own write.
	got := make([]byte, 4096)
	p.Read(f, got, 4096)
	if !bytes.Equal(got, pat(4096, 9)) {
		t.Fatal("transaction should see its own writes")
	}
	if err := p.TxnAbort(); err != nil {
		t.Fatal(err)
	}
	// After abort the no-overwrite before-image is current again.
	if _, err := p.Read(f, got, 4096); err != nil {
		t.Fatal(err)
	}
	want := pat(8192, 1)[4096:]
	if !bytes.Equal(got, want) {
		t.Fatal("abort did not restore the before-image")
	}
}

func TestAbortPartialPageWrite(t *testing.T) {
	r := newRig(t, Options{})
	f := r.mkProtected(t, "/db", pat(4096, 1))
	p := r.m.NewProcess()
	p.TxnBegin()
	if _, err := p.Write(f, []byte("XXXX"), 100); err != nil {
		t.Fatal(err)
	}
	p.TxnAbort()
	got := make([]byte, 4096)
	p.Read(f, got, 0)
	if !bytes.Equal(got, pat(4096, 1)) {
		t.Fatal("partial-page abort failed")
	}
}

func TestCommitDurableAcrossCrash(t *testing.T) {
	r := newRig(t, Options{})
	f := r.mkProtected(t, "/db", pat(8192, 1))
	p := r.m.NewProcess()
	p.TxnBegin()
	p.Write(f, pat(4096, 5), 0)
	if err := p.TxnCommit(); err != nil {
		t.Fatal(err)
	}
	// Crash WITHOUT any file-system sync: the commit flush alone must have
	// made the data recoverable (single recovery paradigm — LFS
	// roll-forward).
	fs2, err := lfs.Mount(r.dev, r.clk, lfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := fs2.Open("/db")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if _, err := g.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pat(4096, 5)) {
		t.Fatal("committed data lost in crash")
	}
}

func TestUncommittedLostAtCrash(t *testing.T) {
	r := newRig(t, Options{})
	f := r.mkProtected(t, "/db", pat(8192, 1))
	p := r.m.NewProcess()
	p.TxnBegin()
	p.Write(f, pat(4096, 7), 0)
	// Force everything the file system is willing to write: held buffers
	// must stay behind.
	if err := r.fs.Flush(); err != nil {
		t.Fatal(err)
	}
	// Crash with the transaction still active.
	fs2, err := lfs.Mount(r.dev, r.clk, lfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := fs2.Open("/db")
	got := make([]byte, 4096)
	g.ReadAt(got, 0)
	if !bytes.Equal(got, pat(8192, 1)[:4096]) {
		t.Fatal("uncommitted data leaked to disk")
	}
}

func TestOneTxnPerProcess(t *testing.T) {
	r := newRig(t, Options{})
	p := r.m.NewProcess()
	if err := p.TxnBegin(); err != nil {
		t.Fatal(err)
	}
	if err := p.TxnBegin(); !errors.Is(err, ErrTxnActive) {
		t.Fatalf("got %v, want ErrTxnActive (restriction 4)", err)
	}
	if err := p.TxnCommit(); err != nil {
		t.Fatal(err)
	}
	if err := p.TxnCommit(); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("got %v, want ErrNoTxn", err)
	}
}

func TestTxnSyscallsNoEffectOnUnprotected(t *testing.T) {
	r := newRig(t, Options{})
	f, err := r.m.Create("/plain")
	if err != nil {
		t.Fatal(err)
	}
	p := r.m.NewProcess()
	p.TxnBegin()
	p.Write(f, pat(4096, 3), 0)
	p.TxnAbort()
	// The abort must NOT roll back writes to unprotected files.
	got := make([]byte, 4096)
	p.Read(f, got, 0)
	if !bytes.Equal(got, pat(4096, 3)) {
		t.Fatal("abort affected an unprotected file")
	}
	if r.m.LockStats().Acquired != 0 {
		t.Fatal("unprotected access should acquire no locks")
	}
}

func TestIsolationBetweenProcesses(t *testing.T) {
	r := newRig(t, Options{})
	f := r.mkProtected(t, "/db", pat(8192, 1))
	var commitAt, readAt time.Duration
	got := make([]byte, 4096)
	runProcs(r,
		func() {
			p1 := r.m.NewProcess()
			p1.TxnBegin()
			if _, err := p1.Write(f, pat(4096, 9), 0); err != nil {
				t.Error(err)
			}
			later(r)
			commitAt = r.clk.Now()
			if err := p1.TxnCommit(); err != nil {
				t.Error(err)
			}
		},
		func() {
			// A second process trying to read the locked page blocks until p1
			// finishes ("the process is descheduled and left sleeping").
			p2 := r.m.NewProcess()
			p2.TxnBegin()
			if _, err := p2.Read(f, got, 0); err != nil {
				t.Error(err)
			}
			readAt = r.clk.Now()
			p2.TxnCommit()
		})
	if st := r.m.LockStats(); st.Waited != 1 || st.BlockedTime == 0 || readAt < commitAt {
		t.Fatalf("read returned at %v after %d wait(s) of %v; p1 committed at %v and its write lock must block the read till then",
			readAt, st.Waited, st.BlockedTime, commitAt)
	}
	if !bytes.Equal(got, pat(4096, 9)) {
		t.Fatal("p2 should see committed data after unblock")
	}
}

func TestDeadlockAbortsTransaction(t *testing.T) {
	r := newRig(t, Options{})
	f := r.mkProtected(t, "/db", pat(12288, 1))
	p1 := r.m.NewProcess()
	p2 := r.m.NewProcess()
	var err1, err2 error
	runProcs(r,
		func() {
			p1.TxnBegin()
			if _, err := p1.Write(f, []byte("a"), 0); err != nil { // page 0
				t.Error(err)
			}
			later(r)
			_, err1 = p1.Write(f, []byte("c"), 4096) // blocks on p2
		},
		func() {
			p2.TxnBegin()
			if _, err := p2.Write(f, []byte("b"), 4096); err != nil { // page 1
				t.Error(err)
			}
			later(r)
			later(r)
			_, err2 = p2.Write(f, []byte("d"), 0) // closes the cycle
		})
	// The request that closes the cycle is denied: p2 is the victim on every run.
	if err1 != nil || !errors.Is(err2, ErrDeadlock) {
		t.Fatalf("p1: %v, p2: %v; want p2 the deadlock victim and p1 granted", err1, err2)
	}
	if r.m.Stats().Deadlocks != 1 {
		t.Fatalf("Deadlocks = %d", r.m.Stats().Deadlocks)
	}
	// The victim was auto-aborted; the survivor can finish.
	if p2.InTxn() {
		t.Fatal("victim should have been aborted")
	}
	if err := p1.TxnCommit(); err != nil {
		t.Fatal(err)
	}
}

// runProcs runs the bodies as virtual processes of one scheduler, spawned in
// argument order (so ties in virtual time dispatch in that order).
func runProcs(r *rig, bodies ...func()) {
	s := sim.NewScheduler(r.clk)
	for i, body := range bodies {
		s.Spawn(fmt.Sprintf("proc-%d", i), body)
	}
	s.Run()
}

// later pushes the calling proc a simulated second ahead and yields, so every
// proc spawned beside it runs until it blocks or finishes first.
func later(r *rig) {
	r.clk.Advance(time.Second)
	r.clk.Yield()
}

// commitOne runs a one-page write transaction to completion in the caller's
// proc.
func commitOne(t *testing.T, r *rig, f *File, data []byte, off int64) {
	t.Helper()
	p := r.m.NewProcess()
	if err := p.TxnBegin(); err != nil {
		t.Error(err)
		return
	}
	if _, err := p.Write(f, data, off); err != nil {
		t.Error(err)
		return
	}
	if err := p.TxnCommit(); err != nil {
		t.Error(err)
	}
}

func TestGroupCommitBatchesFlushes(t *testing.T) {
	r := newRig(t, Options{GroupCommit: 4})
	f := r.mkProtected(t, "/db", pat(64*4096, 1))
	var bodies []func()
	for i := 0; i < 8; i++ {
		i := i
		bodies = append(bodies, func() { commitOne(t, r, f, pat(100, byte(i)), int64(i)*4096) })
	}
	runProcs(r, bodies...)
	st := r.m.Stats()
	if st.CommitFlush != 2 {
		t.Fatalf("CommitFlush = %d, want 2 (8 commits / batch 4)", st.CommitFlush)
	}
	if st.Committed != 8 {
		t.Fatalf("Committed = %d", st.Committed)
	}
	if st.PagesFlushed != 8 {
		t.Fatalf("PagesFlushed = %d, want 8 distinct pages", st.PagesFlushed)
	}
}

// TestPreCommitReleasesLocks: a transaction sleeping in TxnCommit holds no
// locks, so a second writer of the same page proceeds without forcing a
// flush, joins the same batch, and one flush makes both durable.
func TestPreCommitReleasesLocks(t *testing.T) {
	r := newRig(t, Options{GroupCommit: 10})
	f := r.mkProtected(t, "/db", pat(8192, 1))
	runProcs(r,
		func() { commitOne(t, r, f, pat(100, 2), 0) },
		func() {
			later(r) // the first writer is asleep in TxnCommit by now
			if n := r.m.Stats().CommitFlush; n != 0 {
				t.Errorf("CommitFlush = %d before the second writer started, want 0", n)
			}
			commitOne(t, r, f, pat(100, 3), 200)
			if n := r.m.Stats().CommitFlush; n != 1 {
				t.Errorf("CommitFlush = %d, want 1: the second writer must not flush to get the lock", n)
			}
		})
	st := r.m.Stats()
	if st.Committed != 2 || st.CommitFlush != 1 {
		t.Fatalf("Committed = %d in %d flushes, want 2 in 1", st.Committed, st.CommitFlush)
	}
	if st.PagesFlushed != 1 {
		t.Fatalf("PagesFlushed = %d, want 1: both transactions wrote the same page", st.PagesFlushed)
	}
	// Crash: both writes are in the one page the batch logged.
	g, err := mustMount(t, r).Open("/db")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if _, err := g.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	want := pat(8192, 1)[:4096]
	copy(want[0:], pat(100, 2))
	copy(want[200:], pat(100, 3))
	if !bytes.Equal(got, want) {
		t.Fatal("the batch's page does not hold both committed writes")
	}
}

// TestFlushWakesSleepingCommitter: Manager.Flush is the timeout arm — it
// forces a batch that has not filled and wakes its committer.
func TestFlushWakesSleepingCommitter(t *testing.T) {
	r := newRig(t, Options{GroupCommit: 100})
	f := r.mkProtected(t, "/db", pat(4096, 1))
	returned := false
	runProcs(r,
		func() {
			commitOne(t, r, f, pat(100, 2), 0)
			returned = true
		},
		func() {
			later(r)
			if returned || r.m.Stats().Committed != 0 {
				t.Error("TxnCommit returned before its batch was flushed")
			}
			if err := r.m.Flush(); err != nil {
				t.Error(err)
			}
			if r.m.Stats().Committed != 1 {
				t.Error("Flush should complete the pending commit")
			}
		})
	if !returned {
		t.Fatal("the sleeping committer never woke")
	}
}

// TestStallHookFlushesSleepingBatch: when every other process has finished,
// nothing can fill the batch; the scheduler's stall hook has the sleeping
// committer flush it.
func TestStallHookFlushesSleepingBatch(t *testing.T) {
	r := newRig(t, Options{GroupCommit: 100})
	f := r.mkProtected(t, "/db", pat(4096, 1))
	runProcs(r,
		func() { commitOne(t, r, f, pat(100, 2), 0) },
		func() { later(r) }) // runnable while the first commits, then gone
	if st := r.m.Stats(); st.Committed != 1 || st.CommitFlush != 1 {
		t.Fatalf("Committed = %d, CommitFlush = %d, want 1 and 1", st.Committed, st.CommitFlush)
	}
}

// TestCommittedImageFlush is the invariant early lock release rests on. T1
// pre-commits page P, T2 writes P, over some of T1's bytes, before the batch
// reaches the log: a crash right after the flush must recover T1's image of
// P — not a byte of T2's. If T2 then aborts, P stays dirty, since its logged
// copy may lack T1's bytes, and evicting P and reading it again returns T1's
// image, not a stale one. If T2 commits, its bytes are durable too, although
// the force before carried none of them.
func TestCommittedImageFlush(t *testing.T) {
	for _, g := range []Granularity{Page, SubPage} {
		for _, abort := range []bool{true, false} {
			r := newRig(t, Options{GroupCommit: 100, Granularity: g})
			f := r.mkProtected(t, "/db", pat(8192, 1))
			id := buffer.BlockID{File: f.ID(), Block: 0}
			t1Image := pat(8192, 1)[:4096]
			copy(t1Image[0:], pat(100, 2))
			t2Image := bytes.Clone(t1Image)
			copy(t2Image[50:], pat(300, 9))
			// crashes are device images, each with the page a crash at that
			// instant must recover; they are mounted once the procs are done.
			type crash struct {
				when string
				img  bytes.Buffer
				want []byte
			}
			var crashes []*crash
			crashHere := func(when string, want []byte) {
				c := &crash{when: when, want: want}
				if err := r.dev.SaveImage(&c.img); err != nil {
					t.Error(err)
				}
				crashes = append(crashes, c)
			}
			runProcs(r,
				func() { commitOne(t, r, f, pat(100, 2), 0) }, // T1
				func() {
					later(r) // T1 is pre-committed and asleep
					p := r.m.NewProcess()
					p.TxnBegin()
					if _, err := p.Write(f, pat(300, 9), 50); err != nil { // T2, overlapping T1's bytes
						t.Error(err)
						return
					}
					crashHere("before the flush", pat(8192, 1)[:4096])
					if err := r.m.Flush(); err != nil {
						t.Error(err)
					}
					crashHere("after the flush", t1Image)
					b := r.fs.Pool().Lookup(id)
					if b == nil || !b.Held() || !b.Dirty() {
						t.Error("a page with a running writer must stay dirty and held after the flush")
						return
					}
					if !abort {
						if err := p.TxnCommit(); err != nil {
							t.Error(err)
						}
						crashHere("after T2 committed", t2Image)
						return
					}
					if err := p.TxnAbort(); err != nil {
						t.Error(err)
					}
					if b.Held() || b.Dirty() != r.fs.Patched(id) {
						t.Errorf("after the writer aborted: held %v, dirty %v, patched %v; want off hold, dirty until logged whole",
							b.Held(), b.Dirty(), r.fs.Patched(id))
					}
					// Evict the page: write-behind parks it, and it leaves the cache.
					if err := r.fs.Pool().FlushAll(); err != nil {
						t.Error(err)
					}
					if err := r.fs.Pool().Invalidate(id); err != nil {
						t.Error(err)
					}
					got := make([]byte, 4096)
					if _, err := p.Read(f, got, 0); err != nil {
						t.Error(err)
					}
					if !bytes.Equal(got, t1Image) {
						t.Errorf("granularity %d: evicted and read again, the page lost T1's bytes", g)
					}
					crashHere("after T2 aborted", t1Image)
				})
			committed, aborted := int64(1), int64(1)
			if !abort {
				committed, aborted = 2, 0
			}
			if st := r.m.Stats(); st.Committed != committed || st.Aborted != aborted {
				t.Fatalf("Committed = %d, Aborted = %d, want %d and %d", st.Committed, st.Aborted, committed, aborted)
			}
			for _, c := range crashes {
				rf, err := mountImage(t, r, &c.img).Open("/db")
				if err != nil {
					t.Fatal(err)
				}
				got := make([]byte, 4096)
				if _, err := rf.ReadAt(got, 0); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, c.want) {
					t.Errorf("granularity %d: a crash %s recovers the wrong page (T1's bytes %v, T2's %v)",
						g, c.when, bytes.Equal(got[:50], t1Image[:50]), bytes.Equal(got[100:350], t2Image[100:350]))
				}
			}
		}
	}
}

func TestWholePageCommitBytes(t *testing.T) {
	// §4.3: "in the case where only part of a page is modified, the entire
	// page still gets written to disk at commit."
	r := newRig(t, Options{})
	f := r.mkProtected(t, "/db", pat(4096, 1))
	p := r.m.NewProcess()
	p.TxnBegin()
	p.Write(f, []byte("xy"), 10) // 2 bytes
	p.TxnCommit()
	st := r.m.Stats()
	if st.BytesFlushed != 4096 {
		t.Fatalf("BytesFlushed = %d, want one whole page (4096)", st.BytesFlushed)
	}
}

// TestCommitForceIsOneSummaryBlock: a commit whose changed bytes fit a
// summary block writes that block alone — the first commit after Protect
// too — plus an inode pack only when the commit grew the file. §4.3's
// commit volume still counts whole pages.
func TestCommitForceIsOneSummaryBlock(t *testing.T) {
	r := newRig(t, Options{})
	f := r.mkProtected(t, "/db", pat(8192, 1))
	want := append(pat(8192, 1), 0, 0) // the last commit grows the file by two bytes
	for _, c := range []struct {
		off    int64
		blocks int64 // logged by the force
	}{{10, 1}, {4000, 1}, {8192, 2}} {
		before := r.fs.Stats()
		commitOne(t, r, f, []byte("xy"), c.off)
		copy(want[c.off:], "xy")
		st := r.fs.Stats()
		if st.BlocksLogged-before.BlocksLogged != c.blocks || st.SummaryOnlyForces-before.SummaryOnlyForces != 1 {
			t.Fatalf("a commit at %d logged %d blocks in %d summary-only forces; want %d in one",
				c.off, st.BlocksLogged-before.BlocksLogged, st.SummaryOnlyForces-before.SummaryOnlyForces, c.blocks)
		}
	}
	if st := r.m.Stats(); st.BytesFlushed != 3*4096 {
		t.Fatalf("BytesFlushed = %d, want three whole pages", st.BytesFlushed)
	}
	g, err := mountCopy(t, r).Open("/db")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want)+10)
	if n, _ := g.ReadAt(got, 0); !bytes.Equal(got[:n], want) {
		t.Fatal("a crash after the commits lost bytes")
	}
}

func TestBtreeOnEmbeddedStore(t *testing.T) {
	r := newRig(t, Options{})
	f, err := r.m.Create("/tree")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.m.Protect("/tree"); err != nil {
		t.Fatal(err)
	}
	p := r.m.NewProcess()
	p.TxnBegin()
	tr, err := btree.Create(NewStore(p, f))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("key%03d", i)), []byte(fmt.Sprintf("val%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.TxnCommit(); err != nil {
		t.Fatal(err)
	}

	// Abort a batch of updates: the tree reverts.
	p.TxnBegin()
	tr2, err := btree.Open(NewStore(p, f))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		tr2.Put([]byte(fmt.Sprintf("key%03d", i)), []byte("CLOBBERED"))
	}
	p.TxnAbort()

	p.TxnBegin()
	tr3, err := btree.Open(NewStore(p, f))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		v, err := tr3.Get([]byte(fmt.Sprintf("key%03d", i)))
		if err != nil || string(v) != fmt.Sprintf("val%03d", i) {
			t.Fatalf("key%03d = %q, %v after abort", i, v, err)
		}
	}
	p.TxnCommit()
}

func TestSimulatedTimeCharged(t *testing.T) {
	r := newRig(t, Options{})
	f := r.mkProtected(t, "/db", pat(4096, 1))
	before := r.clk.Now()
	p := r.m.NewProcess()
	p.TxnBegin()
	p.Write(f, pat(100, 2), 0)
	p.TxnCommit()
	if r.clk.Now() <= before {
		t.Fatal("transaction must consume simulated time")
	}
}

func TestDegreeOneAccessOutsideTxn(t *testing.T) {
	r := newRig(t, Options{})
	f := r.mkProtected(t, "/db", pat(4096, 1))
	p := r.m.NewProcess()
	// No TxnBegin: access still works, with per-call locking.
	if _, err := p.Write(f, []byte("solo"), 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if _, err := p.Read(f, got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "solo" {
		t.Fatal("degree-1 write lost")
	}
	// Nothing is left locked.
	if r.m.locks.HeldCount(lock.TxnID(1)) != 0 {
		t.Fatal("degree-1 access leaked locks")
	}
}

// TestCommitDurableInIndirectRange crashes right after committing writes in
// the file's indirect-pointer range. Commit forces defer the pointer blocks
// (they stay dirty in memory), so recovery must rebuild the pointers from
// the partial segments' summary entries — the roll-forward pointer replay.
func TestCommitDurableInIndirectRange(t *testing.T) {
	r := newRig(t, Options{})
	// 80 pages: well past the 12 direct pointers.
	f := r.mkProtected(t, "/big", pat(80*4096, 1))
	p := r.m.NewProcess()
	p.TxnBegin()
	// Touch direct, single-indirect ranges in one transaction.
	if _, err := p.Write(f, []byte("DIRECT--"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(f, []byte("INDIRECT"), 50*4096); err != nil {
		t.Fatal(err)
	}
	if err := p.TxnCommit(); err != nil {
		t.Fatal(err)
	}
	// Crash without ever flushing the pointer blocks.
	fs2, err := lfs.Mount(r.dev, r.clk, lfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := fs2.Open("/big")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if _, err := g.ReadAt(buf, 0); err != nil || string(buf) != "DIRECT--" {
		t.Fatalf("direct-range data lost: %q %v", buf, err)
	}
	if _, err := g.ReadAt(buf, 50*4096); err != nil || string(buf) != "INDIRECT" {
		t.Fatalf("indirect-range data lost (pointer replay broken): %q %v", buf, err)
	}
	// The rest of the file is untouched.
	if _, err := g.ReadAt(buf, 70*4096); err != nil {
		t.Fatal(err)
	}
	want := pat(80*4096, 1)[70*4096 : 70*4096+8]
	if !bytes.Equal(buf, want) {
		t.Fatal("unrelated data corrupted by recovery")
	}
}

// TestConcurrentProcessesStress drives several processes through conflicting
// transactions with deadlock-retry, then checks that the final balance matches
// the successful transfer count and that a second run waits, deadlocks and
// commits exactly as the first did.
func TestConcurrentProcessesStress(t *testing.T) {
	const workers = 6
	const perWorker = 15
	run := func() (final, succeeded int64, locks lock.Stats) {
		r := newRig(t, Options{})
		f := r.mkProtected(t, "/counter", pat(4096, 0))
		// Balance starts at 0 in the first 8 bytes.
		p0 := r.m.NewProcess()
		p0.TxnBegin()
		p0.Write(f, make([]byte, 8), 0)
		p0.TxnCommit()

		worker := func() {
			p := r.m.NewProcess()
			for i := 0; i < perWorker; i++ {
				for attempt := 0; attempt < 20; attempt++ {
					if err := p.TxnBegin(); err != nil {
						t.Error(err)
						return
					}
					buf := make([]byte, 8)
					if _, err := p.Read(f, buf, 0); err != nil {
						p.TxnAbort()
						continue // deadlock victim: retry
					}
					v := int64(binary.LittleEndian.Uint64(buf))
					binary.LittleEndian.PutUint64(buf, uint64(v+1))
					if _, err := p.Write(f, buf, 0); err != nil {
						if p.InTxn() {
							p.TxnAbort()
						}
						continue
					}
					if err := p.TxnCommit(); err != nil {
						t.Error(err)
						return
					}
					succeeded++
					break
				}
			}
		}
		runProcs(r, slices.Repeat([]func(){worker}, workers)...)
		buf := make([]byte, 8)
		if _, err := r.m.NewProcess().Read(f, buf, 0); err != nil {
			t.Fatal(err)
		}
		return int64(binary.LittleEndian.Uint64(buf)), succeeded, r.m.LockStats()
	}
	final, succeeded, locks := run()
	if final != succeeded {
		t.Fatalf("counter = %d, want %d (lost updates!)", final, succeeded)
	}
	if final == 0 {
		t.Fatal("no transaction succeeded")
	}
	if f2, s2, l2 := run(); f2 != final || s2 != succeeded || l2 != locks {
		t.Fatalf("two runs differ: %d of %d, %+v; then %d of %d, %+v", final, succeeded, locks, f2, s2, l2)
	}
	t.Logf("%d of %d increments committed; %+v", succeeded, workers*perWorker, locks)
}
