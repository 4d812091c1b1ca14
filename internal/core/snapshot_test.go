package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/lfs"
	"repro/internal/sim"
)

// txnWrite runs one write transaction through to its commit flush (group
// commit 1 in these rigs, so TxnCommit is the commit point).
func txnWrite(t *testing.T, r *rig, f *File, data []byte, off int64) {
	t.Helper()
	p := r.m.NewProcess()
	if err := p.TxnBegin(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(f, data, off); err != nil {
		t.Fatal(err)
	}
	if err := p.TxnCommit(); err != nil {
		t.Fatal(err)
	}
}

// snapPage reads page n of f through snapshot s.
func snapPage(t *testing.T, s *Snapshot, f *File, n int64) []byte {
	t.Helper()
	got := make([]byte, f.m.fs.BlockSize())
	if err := s.Store(f).ReadPage(n, got); err != nil {
		t.Fatalf("snapshot read of page %d: %v", n, err)
	}
	return got
}

// TestSnapshotSeesPreCommitImage: a snapshot pinned before a committing
// writer keeps reading the superseded version, rejects writes, and a snapshot
// opened after the commit sees the new bytes.
func TestSnapshotSeesPreCommitImage(t *testing.T) {
	r := newRig(t, Options{})
	ps := r.fs.BlockSize()
	old := pat(ps, 1)
	f := r.mkProtected(t, "/acct", old)

	snap := r.m.BeginSnapshot()
	defer snap.Close()

	next := pat(ps, 99)
	txnWrite(t, r, f, next, 0)

	if !bytes.Equal(snapPage(t, snap, f, 0), old) {
		t.Fatal("snapshot read returned post-commit bytes")
	}
	if err := snap.Store(f).WritePage(0, next); !errors.Is(err, ErrSnapshotReadOnly) {
		t.Fatalf("snapshot write: got %v, want ErrSnapshotReadOnly", err)
	}
	if _, err := snap.Store(f).AllocPage(); !errors.Is(err, ErrSnapshotReadOnly) {
		t.Fatalf("snapshot alloc: got %v, want ErrSnapshotReadOnly", err)
	}

	after := r.m.BeginSnapshot()
	defer after.Close()
	if !bytes.Equal(snapPage(t, after, f, 0), next) {
		t.Fatal("snapshot pinned after the commit should see the new bytes")
	}

	snap.Close()
	got := make([]byte, ps)
	if err := snap.Store(f).ReadPage(0, got); !errors.Is(err, ErrSnapshotDone) {
		t.Fatalf("read through closed snapshot: got %v, want ErrSnapshotDone", err)
	}
}

// TestSnapshotHorizonAdvance: before-images are kept while any snapshot is
// pinned and released exactly when the last one closes — not at the first
// close, and not later.
func TestSnapshotHorizonAdvance(t *testing.T) {
	r := newRig(t, Options{})
	ps := r.fs.BlockSize()
	f := r.mkProtected(t, "/acct", pat(4*ps, 1))

	txnWrite(t, r, f, pat(ps, 30), 0)
	if n := r.m.vers.Bytes(); n != 0 {
		t.Fatalf("version store holds %d bytes with no snapshot pinned", n)
	}

	s1 := r.m.BeginSnapshot()
	s2 := r.m.BeginSnapshot()
	for i := 0; i < 3; i++ {
		txnWrite(t, r, f, pat(ps, byte(40+i)), int64(i)*int64(ps))
	}
	held := r.m.vers.Bytes()
	if held != 3*int64(ps) {
		t.Fatalf("3 page commits over a pinned snapshot kept %d bytes, want %d", held, 3*ps)
	}
	if got := r.m.Stats().VersionsRecorded; got != 3 {
		t.Fatalf("VersionsRecorded = %d, want 3", got)
	}

	// First close: s1 still pins the same horizon, nothing may be released.
	s2.Close()
	if got := r.m.vers.Bytes(); got != held {
		t.Fatalf("closing the newer of two equal-horizon snapshots released versions: %d -> %d", held, got)
	}
	want := pat(4*ps, 1)
	copy(want, pat(ps, 30))
	for n := int64(0); n < 4; n++ {
		if !bytes.Equal(snapPage(t, s1, f, n), want[n*int64(ps):(n+1)*int64(ps)]) {
			t.Fatalf("page %d through the remaining snapshot is not its horizon image", n)
		}
	}

	// Last close: everything releases at once.
	s1.Close()
	if got := r.m.vers.Bytes(); got != 0 {
		t.Fatalf("last close left %d delta bytes", got)
	}
}

// TestPinnedSnapshotDoesNotFillDisk: a snapshot pinned across more overwrites
// than the disk has room for costs memory, not log space. On the 8,192-block
// small disk, 200 rounds over a 64-page file write 12,800 data blocks; when
// the snapshot kept each superseded address alive in the log, the cleaner
// could reclaim nothing and a commit failed with "no clean segments".
func TestPinnedSnapshotDoesNotFillDisk(t *testing.T) {
	r := newRig(t, Options{})
	ps := r.fs.BlockSize()
	const pages, perTxn, rounds = 64, 8, 200
	base := pat(pages*ps, 1)
	f := r.mkProtected(t, "/acct", base)

	snap := r.m.BeginSnapshot()
	defer snap.Close()
	for round := 0; round < rounds; round++ {
		for first := 0; first < pages; first += perTxn {
			p := r.m.NewProcess()
			if err := p.TxnBegin(); err != nil {
				t.Fatal(err)
			}
			// A short write per page: the commit logs the whole page, so the
			// log fills as fast as full-page writes would, while the kept
			// before-images stay small.
			for pg := first; pg < first+perTxn; pg++ {
				if _, err := p.Write(f, pat(64, byte(round)), int64(pg*ps)); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.TxnCommit(); err != nil {
				t.Fatalf("round %d, commit of pages %d-%d: %v", round, first, first+perTxn-1, err)
			}
		}
	}
	for n := int64(0); n < pages; n++ {
		if !bytes.Equal(snapPage(t, snap, f, n), base[n*int64(ps):(n+1)*int64(ps)]) {
			t.Fatalf("page %d through the snapshot is not its horizon image", n)
		}
	}
}

// TestSnapshotHidesPendingAndRunningWrites: a snapshot pinned while one
// transaction is pre-committed in an unflushed group-commit batch and another
// is still running sees neither, and serves both pages from the cache, held as
// they are, without a device read. Both stay invisible after the batch
// reaches the log; a snapshot pinned after it sees them.
func TestSnapshotHidesPendingAndRunningWrites(t *testing.T) {
	r := newRig(t, Options{GroupCommit: 10})
	ps := r.fs.BlockSize()
	base := pat(2*ps, 1)
	f := r.mkProtected(t, "/acct", base)
	var snap *Snapshot
	runProcs(r,
		func() { commitOne(t, r, f, pat(100, 2), 0) }, // pre-commits, sleeps in the batch
		func() {
			p := r.m.NewProcess()
			if err := p.TxnBegin(); err != nil {
				t.Error(err)
				return
			}
			if _, err := p.Write(f, pat(100, 3), int64(ps)); err != nil {
				t.Error(err)
				return
			}
			later(r)
			later(r) // still running while the snapshot reads
			if err := p.TxnCommit(); err != nil {
				t.Error(err)
			}
		},
		func() {
			later(r)
			if n := r.m.Stats().CommitFlush; n != 0 {
				t.Errorf("CommitFlush = %d before the snapshot, want 0", n)
			}
			snap = r.m.BeginSnapshot()
			reads := r.dev.Stats().Reads
			for n := int64(0); n < 2; n++ {
				if !bytes.Equal(snapPage(t, snap, f, n), base[n*int64(ps):(n+1)*int64(ps)]) {
					t.Errorf("page %d: the snapshot sees a pending or running write", n)
				}
			}
			if got := r.dev.Stats().Reads - reads; got != 0 {
				t.Errorf("snapshot reads of held pages took %d device reads, want 0", got)
			}
		})
	defer snap.Close()
	if st := r.m.Stats(); st.Committed != 2 || st.CommitFlush != 1 {
		t.Fatalf("Committed = %d in %d flushes, want 2 in 1", st.Committed, st.CommitFlush)
	}
	for n := int64(0); n < 2; n++ {
		if !bytes.Equal(snapPage(t, snap, f, n), base[n*int64(ps):(n+1)*int64(ps)]) {
			t.Fatalf("page %d: the batch became visible to a snapshot pinned before its flush", n)
		}
	}
	after := r.m.BeginSnapshot()
	defer after.Close()
	want := bytes.Clone(base)
	copy(want, pat(100, 2))
	copy(want[ps:], pat(100, 3))
	for n := int64(0); n < 2; n++ {
		if !bytes.Equal(snapPage(t, after, f, n), want[n*int64(ps):(n+1)*int64(ps)]) {
			t.Fatalf("page %d: a snapshot pinned after the flush misses the batch", n)
		}
	}
}

// TestSnapshotHidesDegreeOneWrite: a write outside any transaction to a
// protected file is its own commit point. It is kept out of a snapshot pinned
// before it, before and after the next commit flush, and a snapshot pinned
// after it — while the older one is still pinned, and before any flush — sees
// it, as one does when no snapshot was pinned at the write.
func TestSnapshotHidesDegreeOneWrite(t *testing.T) {
	r := newRig(t, Options{})
	ps := r.fs.BlockSize()
	base := pat(2*ps, 1)
	f := r.mkProtected(t, "/acct", base)

	snap := r.m.BeginSnapshot()
	defer snap.Close()
	d1 := pat(ps+200, 7) // spans both pages
	if _, err := r.m.NewProcess().Write(f, d1, 100); err != nil {
		t.Fatal(err)
	}
	withD1 := bytes.Clone(base)
	copy(withD1[100:], d1)
	check := func(s *Snapshot, want []byte, msg string) {
		t.Helper()
		for n := int64(0); n < 2; n++ {
			if !bytes.Equal(snapPage(t, s, f, n), want[n*int64(ps):(n+1)*int64(ps)]) {
				t.Fatalf("page %d: %s", n, msg)
			}
		}
	}
	check(snap, base, "the older snapshot shows the degree-1 write before the next flush")
	mid := r.m.BeginSnapshot()
	defer mid.Close()
	check(mid, withD1, "a snapshot pinned after the degree-1 write misses it")

	txnWrite(t, r, f, pat(10, 9), 0)
	check(snap, base, "the older snapshot shows the degree-1 write after the next flush")
	check(mid, withD1, "the transaction committed after the pin shows through")

	after := r.m.BeginSnapshot()
	defer after.Close()
	want := bytes.Clone(withD1)
	copy(want, pat(10, 9))
	check(after, want, "a snapshot pinned after the flush misses a write")
}

// TestSnapshotWindowDropsAbortedWrite: the readahead window, filled while a
// running transaction holds one of its pages, must not keep that
// transaction's bytes: once it aborts and the cache evicts the page, a read
// through the snapshot is served from the window with no delta left to
// rewind them.
func TestSnapshotWindowDropsAbortedWrite(t *testing.T) {
	clk := sim.NewClock()
	dev := disk.New(sim.SmallModel(), clk)
	fsys, err := lfs.Format(dev, clk, lfs.Options{CacheBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{clk: clk, dev: dev, fs: fsys, m: New(fsys, clk, Options{})}
	ps := r.fs.BlockSize()
	base := pat(4*ps, 1)
	f := r.mkProtected(t, "/acct", base)
	other, err := r.m.Create("/other")
	if err != nil {
		t.Fatal(err)
	}
	p := r.m.NewProcess()
	if _, err := p.Write(other, pat(8*ps, 5), 0); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	flushCache := func() { // read /other whole: evicts every page of /acct
		if _, err := p.Read(other, make([]byte, 8*ps), 0); err != nil {
			t.Fatal(err)
		}
	}
	flushCache()

	snap := r.m.BeginSnapshot()
	defer snap.Close()
	w := r.m.NewProcess()
	if err := w.TxnBegin(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(f, []byte("aborted"), int64(ps)); err != nil {
		t.Fatal(err)
	}
	st := snap.Store(f)
	got := make([]byte, ps)
	if err := st.ReadPage(0, got); err != nil { // fills the window, page 1 held
		t.Fatal(err)
	}
	if err := w.TxnAbort(); err != nil {
		t.Fatal(err)
	}
	flushCache()
	if b := r.fs.Pool().Lookup(buffer.BlockID{File: f.ID(), Block: 1}); b != nil {
		t.Fatal("page 1 is still resident: the read would not reach the window")
	}
	reads := r.dev.Stats().Reads
	if err := st.ReadPage(1, got); err != nil {
		t.Fatal(err)
	}
	if n := r.dev.Stats().Reads - reads; n != 0 {
		t.Fatalf("page 1 took %d device reads, want 0 (served from the window)", n)
	}
	if !bytes.Equal(got, base[ps:2*ps]) {
		t.Fatal("page 1 through the snapshot shows an aborted transaction's bytes")
	}
}

// TestSnapshotRewindsCoveredRewrite: the version store keeps only the bytes a
// write changes, so a later write the transaction's first before-image
// already covers must leave its own: a whole-page write that changes a few
// bytes, then a second write inside it that changes others, both rewind.
func TestSnapshotRewindsCoveredRewrite(t *testing.T) {
	r := newRig(t, Options{})
	ps := r.fs.BlockSize()
	base := pat(ps, 1)
	f := r.mkProtected(t, "/acct", base)

	snap := r.m.BeginSnapshot()
	defer snap.Close()
	p := r.m.NewProcess()
	if err := p.TxnBegin(); err != nil {
		t.Fatal(err)
	}
	whole := bytes.Clone(base)
	copy(whole[10:], "first")
	if _, err := p.Write(f, whole, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(f, []byte("second"), 2000); err != nil {
		t.Fatal(err)
	}
	if err := p.TxnCommit(); err != nil {
		t.Fatal(err)
	}
	if n := r.m.vers.Bytes(); n != int64(len("first")+len("second")) {
		t.Fatalf("version store keeps %d bytes, want the %d the two writes changed", n, len("first")+len("second"))
	}
	if !bytes.Equal(snapPage(t, snap, f, 0), base) {
		t.Fatal("the snapshot sees a write its transaction's first before-image covered")
	}
}

// TestSnapshotWindowKeepsUnloggedWrite: a write outside any transaction made
// before the pin belongs to the snapshot's image even while only the cache
// holds it. The readahead window, filled from the log while that page was
// cached, must not serve the logged image once the cache has evicted it.
func TestSnapshotWindowKeepsUnloggedWrite(t *testing.T) {
	clk := sim.NewClock()
	dev := disk.New(sim.SmallModel(), clk)
	fsys, err := lfs.Format(dev, clk, lfs.Options{CacheBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{clk: clk, dev: dev, fs: fsys, m: New(fsys, clk, Options{})}
	ps := r.fs.BlockSize()
	base := pat(4*ps, 1)
	f := r.mkProtected(t, "/acct", base)
	other, err := r.m.Create("/other")
	if err != nil {
		t.Fatal(err)
	}
	p := r.m.NewProcess()
	if _, err := p.Write(other, pat(8*ps, 5), 0); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	flushCache := func() { // read /other whole: evicts every page of /acct
		if _, err := p.Read(other, make([]byte, 8*ps), 0); err != nil {
			t.Fatal(err)
		}
	}
	flushCache()
	if _, err := p.Write(f, []byte("unlogged"), int64(ps)); err != nil {
		t.Fatal(err)
	}
	snap := r.m.BeginSnapshot()
	defer snap.Close()
	st := snap.Store(f)
	got := make([]byte, ps)
	if err := st.ReadPage(0, got); err != nil { // fills the window from the log
		t.Fatal(err)
	}
	flushCache()
	if err := st.ReadPage(1, got); err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(base[ps : 2*ps])
	copy(want, "unlogged")
	if !bytes.Equal(got, want) {
		t.Fatal("page 1 through the snapshot lost a write made before the pin")
	}
}
