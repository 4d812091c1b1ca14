package wal

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/disk"
	"repro/internal/ffs"
	"repro/internal/frame"
	"repro/internal/lfs"
	"repro/internal/sim"
	"repro/internal/vfs"
)

func newFS(t *testing.T) vfs.FileSystem {
	t.Helper()
	clk := sim.NewClock()
	dev := disk.New(sim.SmallModel(), clk)
	fsys, err := lfs.Format(dev, clk, lfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return fsys
}

func newLogOpts(t *testing.T, opts Options) (*Manager, vfs.FileSystem) {
	t.Helper()
	fsys := newFS(t)
	m, err := Create(fsys, "/log", opts)
	if err != nil {
		t.Fatal(err)
	}
	return m, fsys
}

func newLog(t *testing.T) (*Manager, vfs.FileSystem) {
	t.Helper()
	return newLogOpts(t, Options{})
}

func TestAppendAndScan(t *testing.T) {
	m, _ := newLog(t)
	lsn1, err := m.LogUpdate(1, 10, 5, 100, []byte("old"), []byte("new"))
	if err != nil {
		t.Fatal(err)
	}
	if err := logCommit(m, 1); err != nil {
		t.Fatal(err)
	}
	recs, err := m.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("Scan = %d records, want 2", len(recs))
	}
	r := recs[0]
	if r.LSN != lsn1 || r.Type != RecUpdate || r.Txn != 1 || r.File != 10 || r.Block != 5 ||
		r.Offset != 100 || string(r.Before) != "old" || string(r.After) != "new" {
		t.Fatalf("record = %+v", r)
	}
	if recs[1].Type != RecCommit {
		t.Fatalf("second record = %+v", recs[1])
	}
}

func TestLSNEncoding(t *testing.T) {
	l := makeLSN(7, 12345)
	if l.Segment() != 7 || l.Offset() != 12345 {
		t.Fatalf("lsn %v: segment=%d offset=%d", l, l.Segment(), l.Offset())
	}
	if makeLSN(1, 100) >= makeLSN(2, 0) {
		t.Fatal("LSNs must order across segments")
	}
	if makeLSN(3, 5) >= makeLSN(3, 6) {
		t.Fatal("LSNs must order within a segment")
	}
}

// logCommit is a forced commit: append txn's commit record, then force the
// log — what a committer with nobody to share a force with does.
func logCommit(m *Manager, txn uint64) error {
	if _, err := m.AppendCommit(txn); err != nil {
		return err
	}
	return m.Force()
}

// recoverLog is recovery as libtp runs it: Scan from the last checkpoint,
// then ReplayRecords.
func recoverLog(m *Manager, apply func(file uint64, block int64, offset uint32, data []byte) error) (winners, losers int, err error) {
	recs, err := m.Scan()
	if err != nil {
		return 0, 0, err
	}
	return ReplayRecords(recs, apply)
}

func TestCommitForcesLog(t *testing.T) {
	m, _ := newLog(t)
	m.LogUpdate(1, 1, 0, 0, []byte("a"), []byte("b"))
	if _, err := m.AppendCommit(1); err != nil {
		t.Fatal(err)
	}
	if m.active().durable != 0 {
		t.Fatal("appending must not force: the commit is durable only after Force")
	}
	if err := m.Force(); err != nil {
		t.Fatal(err)
	}
	if m.active().durable != m.active().end() {
		t.Fatal("Force should make the whole log durable")
	}
}

// TestGroupCommitBatches: a batch is k appended commit records and one Force;
// none of them is durable before it, all of them after.
func TestGroupCommitBatches(t *testing.T) {
	m, _ := newLog(t)
	for txn := uint64(1); txn <= 3; txn++ {
		m.LogUpdate(txn, 1, 0, 0, []byte("x"), []byte("y"))
		if _, err := m.AppendCommit(txn); err != nil {
			t.Fatal(err)
		}
		if txn > 1 {
			m.NoteAbsorbed() // waits on the first committer's force
		}
	}
	if m.active().durable != 0 {
		t.Fatal("no commit of the batch may be durable before its force")
	}
	if err := m.Force(); err != nil {
		t.Fatal(err)
	}
	if m.active().durable != m.active().end() {
		t.Fatal("one force must cover the whole batch")
	}
	st := m.Stats()
	if st.Forces != 1 {
		t.Fatalf("Forces = %d, want 1 (amortized)", st.Forces)
	}
	if st.GroupCommits != 2 {
		t.Fatalf("GroupCommits = %d, want 2", st.GroupCommits)
	}
}

func TestReopenFindsEnd(t *testing.T) {
	m, fsys := newLog(t)
	m.LogUpdate(1, 1, 0, 0, []byte("a"), []byte("b"))
	logCommit(m, 1)
	end := m.End()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(fsys, "/log", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m2.End() != end {
		t.Fatalf("reopened end = %v, want %v", m2.End(), end)
	}
	// Appending after reopen works.
	m2.LogUpdate(2, 1, 0, 0, []byte("c"), []byte("d"))
	if err := logCommit(m2, 2); err != nil {
		t.Fatal(err)
	}
	recs, _ := m2.Scan()
	if len(recs) != 4 {
		t.Fatalf("%d records after reopen, want 4", len(recs))
	}
}

func TestTornTailIgnored(t *testing.T) {
	m, fsys := newLog(t)
	m.LogUpdate(1, 1, 0, 0, []byte("good"), []byte("good"))
	logCommit(m, 1)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: a garbage block right after the stream's last.
	f, err := fsys.Open("/log.1.txnlog")
	if err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, BlockSize)
	for i := range garbage {
		garbage[i] = 0xde
	}
	f.WriteAt(garbage, blockFileOff(1))
	f.Sync()
	f.Close()
	m2, err := Open(fsys, "/log", Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := m2.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2 (torn tail dropped)", len(recs))
	}
}

// A CRC-valid record whose type byte names no record type is damage, not
// data: the scan ends at it as at a torn record, so neither it nor the
// commit behind it reaches recovery.
func TestScanStopsAtUnknownRecordType(t *testing.T) {
	m, fsys := newLog(t)
	m.LogUpdate(1, 1, 0, 0, []byte("a"), []byte("b"))
	if err := logCommit(m, 1); err != nil {
		t.Fatal(err)
	}
	m.LogUpdate(2, 1, 0, 0, []byte("b"), []byte("c"))
	m.append(&Record{Type: RecCheckpoint + 1, Txn: 2})
	if err := logCommit(m, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(fsys, "/log", Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := m2.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("%d records, want 3 (the scan ends at the unknown type)", len(recs))
	}
	pages := pageStore{}
	winners, losers, err := ReplayRecords(recs, pages.apply)
	if err != nil {
		t.Fatal(err)
	}
	if winners != 1 || losers != 1 {
		t.Fatalf("winners=%d losers=%d, want 1 and 1", winners, losers)
	}
	if got := pages[[2]int64{1, 0}][0]; got != 'b' {
		t.Fatalf("page byte = %q, want txn 1's 'b' with txn 2 undone", got)
	}
}

// page is a toy page store for recovery tests.
type pageStore map[[2]int64][]byte

func (p pageStore) apply(file uint64, block int64, offset uint32, data []byte) error {
	key := [2]int64{int64(file), block}
	pg, ok := p[key]
	if !ok {
		pg = make([]byte, 4096)
		p[key] = pg
	}
	copy(pg[offset:], data)
	return nil
}

func TestRecoverRedoWinners(t *testing.T) {
	m, _ := newLog(t)
	m.LogUpdate(1, 7, 0, 10, []byte("AAAA"), []byte("BBBB"))
	logCommit(m, 1)
	store := pageStore{}
	w, l, err := recoverLog(m, store.apply)
	if err != nil {
		t.Fatal(err)
	}
	if w != 1 || l != 0 {
		t.Fatalf("winners=%d losers=%d", w, l)
	}
	if got := store[[2]int64{7, 0}][10:14]; !bytes.Equal(got, []byte("BBBB")) {
		t.Fatalf("page = %q, want BBBB", got)
	}
}

func TestRecoverUndoLosers(t *testing.T) {
	m, _ := newLog(t)
	// Winner then loser on the same bytes.
	m.LogUpdate(1, 7, 0, 10, []byte("AAAA"), []byte("BBBB"))
	logCommit(m, 1)
	m.LogUpdate(2, 7, 0, 10, []byte("BBBB"), []byte("CCCC"))
	m.Force() // loser's update reached the log but no commit
	store := pageStore{}
	// Simulate the page on disk containing the loser's change.
	store.apply(7, 0, 10, []byte("CCCC"))
	w, l, err := recoverLog(m, store.apply)
	if err != nil {
		t.Fatal(err)
	}
	if w != 1 || l != 1 {
		t.Fatalf("winners=%d losers=%d", w, l)
	}
	if got := store[[2]int64{7, 0}][10:14]; !bytes.Equal(got, []byte("BBBB")) {
		t.Fatalf("page = %q, want BBBB (loser undone)", got)
	}
}

func TestRecoverMultiTxnInterleaved(t *testing.T) {
	m, _ := newLog(t)
	// T1 and T2 interleave on different offsets of one page; T1 commits.
	m.LogUpdate(1, 3, 2, 0, []byte("xxxx"), []byte("T1AA"))
	m.LogUpdate(2, 3, 2, 8, []byte("yyyy"), []byte("T2BB"))
	m.LogUpdate(1, 3, 2, 4, []byte("zzzz"), []byte("T1CC"))
	logCommit(m, 1)
	store := pageStore{}
	store.apply(3, 2, 0, []byte("T1AAT1CCT2BB")) // crash state: both applied
	if _, _, err := recoverLog(m, store.apply); err != nil {
		t.Fatal(err)
	}
	pg := store[[2]int64{3, 2}]
	if !bytes.Equal(pg[0:4], []byte("T1AA")) || !bytes.Equal(pg[4:8], []byte("T1CC")) {
		t.Fatalf("winner bytes wrong: %q", pg[:12])
	}
	if !bytes.Equal(pg[8:12], []byte("yyyy")) {
		t.Fatalf("loser bytes not undone: %q", pg[8:12])
	}
}

func TestAbortedTxnUndoneAtRecovery(t *testing.T) {
	// The transaction layer logs a compensation update (restoring the
	// before-image) ahead of the abort record; recovery replays the whole
	// sequence forward.
	m, _ := newLog(t)
	m.LogUpdate(5, 1, 0, 0, []byte("OLD!"), []byte("NEW!"))
	m.LogUpdate(5, 1, 0, 0, []byte("NEW!"), []byte("OLD!")) // compensation
	m.LogAbort(5)
	m.Force()
	store := pageStore{}
	store.apply(1, 0, 0, []byte("NEW!")) // page escaped to disk pre-abort
	w, l, err := recoverLog(m, store.apply)
	if err != nil {
		t.Fatal(err)
	}
	if w != 0 || l != 1 {
		t.Fatalf("winners=%d losers=%d", w, l)
	}
	if got := store[[2]int64{1, 0}][:4]; !bytes.Equal(got, []byte("OLD!")) {
		t.Fatalf("aborted txn not undone: %q", got)
	}
}

func TestAbortDoesNotClobberLaterCommit(t *testing.T) {
	// T3 updates X and aborts (with compensation); T4 then commits a new
	// value for X. Recovery must leave T4's value in place — the scenario
	// that breaks naive reverse-undo of aborted transactions.
	m, _ := newLog(t)
	m.LogUpdate(3, 1, 0, 0, []byte("0000"), []byte("3333"))
	m.LogUpdate(3, 1, 0, 0, []byte("3333"), []byte("0000")) // compensation
	m.LogAbort(3)
	m.LogUpdate(4, 1, 0, 0, []byte("0000"), []byte("4444"))
	logCommit(m, 4)
	store := pageStore{}
	store.apply(1, 0, 0, []byte("4444"))
	if _, _, err := recoverLog(m, store.apply); err != nil {
		t.Fatal(err)
	}
	if got := store[[2]int64{1, 0}][:4]; !bytes.Equal(got, []byte("4444")) {
		t.Fatalf("committed value clobbered: %q", got)
	}
}

func TestCheckpointBoundsScan(t *testing.T) {
	m, _ := newLog(t)
	m.LogUpdate(1, 1, 0, 0, []byte("a"), []byte("b"))
	logCommit(m, 1)
	if _, err := m.LogCheckpoint(); err != nil {
		t.Fatal(err)
	}
	recs, err := m.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Type != RecCheckpoint {
		t.Fatalf("after checkpoint: %d records (want just the checkpoint), first %+v", len(recs), recs[0])
	}
	// The log keeps working after a checkpoint.
	m.LogUpdate(2, 1, 0, 0, []byte("c"), []byte("d"))
	logCommit(m, 2)
	recs, _ = m.Scan()
	if len(recs) != 3 {
		t.Fatalf("after checkpoint+append: %d records, want 3", len(recs))
	}
}

func TestCheckpointRecord(t *testing.T) {
	m, _ := newLog(t)
	lsn, err := m.LogCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if m.ckptLSN != lsn {
		t.Fatalf("anchored checkpoint = %v, want %v", m.ckptLSN, lsn)
	}
	recs, _ := m.Scan()
	if len(recs) != 1 || recs[0].Type != RecCheckpoint {
		t.Fatalf("recs = %+v", recs)
	}
	if recs[0].File != m.lowWater {
		t.Fatalf("checkpoint record low-water = %d, want %d", recs[0].File, m.lowWater)
	}
}

func TestClosedLogRejects(t *testing.T) {
	m, _ := newLog(t)
	m.Close()
	if _, err := m.LogUpdate(1, 1, 0, 0, nil, nil); err != ErrClosed {
		t.Fatalf("got %v, want ErrClosed", err)
	}
	if err := logCommit(m, 1); err != ErrClosed {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

func TestBytesLoggedReflectsDeltaSize(t *testing.T) {
	// The point of §4.3's comparison: WAL logs only the changed bytes,
	// while the embedded system flushes whole pages at commit.
	m, _ := newLog(t)
	small := []byte("ab")
	m.LogUpdate(1, 1, 0, 0, small, small)
	logCommit(m, 1)
	st := m.Stats()
	if st.BytesLogged > 200 {
		t.Fatalf("BytesLogged = %d; delta logging should be tiny", st.BytesLogged)
	}
}

// Property: any sequence of logged records scans back exactly, and recovery
// of a fully-committed history is idempotent (applying it twice gives the
// same pages).
func TestLogRoundTripProperty(t *testing.T) {
	prop := func(ops []struct {
		Txn    uint8
		Block  uint8
		Off    uint8
		Commit bool
	}) bool {
		// A tiny segment threshold makes even short op sequences rotate, so
		// the property covers record placement across segment boundaries.
		m, _ := newLogOpts(t, Options{SegmentBytes: 160})
		var expected []Record
		for _, op := range ops {
			if op.Commit {
				if err := logCommit(m, uint64(op.Txn)); err != nil {
					return false
				}
				expected = append(expected, Record{Type: RecCommit, Txn: uint64(op.Txn)})
			} else {
				before := []byte{op.Block, op.Off}
				after := []byte{op.Off, op.Block}
				if _, err := m.LogUpdate(uint64(op.Txn), 1, int64(op.Block), uint32(op.Off), before, after); err != nil {
					return false
				}
				expected = append(expected, Record{Type: RecUpdate, Txn: uint64(op.Txn), Block: int64(op.Block), Offset: uint32(op.Off)})
			}
		}
		if err := m.Force(); err != nil {
			return false
		}
		recs, err := m.Scan()
		if err != nil || len(recs) != len(expected) {
			return false
		}
		for i, want := range expected {
			got := recs[i]
			if got.Type != want.Type || got.Txn != want.Txn {
				return false
			}
			if want.Type == RecUpdate && (got.Block != want.Block || got.Offset != want.Offset) {
				return false
			}
		}
		// Recovery idempotence.
		s1, s2 := pageStore{}, pageStore{}
		if _, _, err := recoverLog(m, s1.apply); err != nil {
			return false
		}
		if _, _, err := recoverLog(m, s2.apply); err != nil {
			return false
		}
		if _, _, err := recoverLog(m, s2.apply); err != nil { // twice
			return false
		}
		if len(s1) != len(s2) {
			return false
		}
		for k, v := range s1 {
			if !bytes.Equal(s2[k], v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverDeterministic(t *testing.T) {
	// Recovery must be a pure function of the log: two runs over the same
	// records produce identical apply traces, identical page state, and
	// identical winner/loser counts. A committed winner, an aborted
	// transaction with a compensating after-image, and an in-flight loser
	// exercise all three classification paths.
	m, _ := newLog(t)
	m.LogUpdate(1, 7, 0, 0, []byte("aaaa"), []byte("wwww"))
	logCommit(m, 1)
	m.LogUpdate(2, 7, 1, 8, []byte("bbbb"), []byte("cccc"))
	m.LogAbort(2)
	m.LogUpdate(3, 8, 2, 16, []byte("dddd"), []byte("eeee"))
	m.LogUpdate(3, 7, 0, 4, []byte("ffff"), []byte("gggg"))
	m.Force() // txn 3 never resolves: in-flight loser

	type applied struct {
		File   uint64
		Block  int64
		Offset uint32
		Data   string
	}
	run := func() ([]applied, pageStore, int, int) {
		var trace []applied
		store := pageStore{}
		w, l, err := recoverLog(m, func(file uint64, block int64, offset uint32, data []byte) error {
			trace = append(trace, applied{file, block, offset, string(data)})
			return store.apply(file, block, offset, data)
		})
		if err != nil {
			t.Fatal(err)
		}
		return trace, store, w, l
	}
	trace1, store1, w1, l1 := run()
	trace2, store2, w2, l2 := run()
	if w1 != 1 || l1 != 2 {
		t.Fatalf("winners=%d losers=%d, want 1 and 2", w1, l1)
	}
	if w1 != w2 || l1 != l2 {
		t.Fatalf("counts diverged across runs: (%d,%d) vs (%d,%d)", w1, l1, w2, l2)
	}
	if !reflect.DeepEqual(trace1, trace2) {
		t.Fatalf("apply traces diverged:\nrun1: %v\nrun2: %v", trace1, trace2)
	}
	if !reflect.DeepEqual(store1, store2) {
		t.Fatal("post-recovery page state diverged between identical runs")
	}
}

// logHost is a file system a log can live on, with the count of inode writes
// a commit force inside a preallocated segment must not add to: inode-table
// stores by File.Sync on FFS, inode pack blocks on LFS.
type logHost struct {
	name   string
	fsys   vfs.FileSystem
	dev    *disk.Device
	inodes func() int64
}

// logHosts returns a fresh LFS and a fresh FFS.
func logHosts(t *testing.T) []logHost {
	t.Helper()
	clk := sim.NewClock()
	ldev := disk.New(sim.SmallModel(), clk)
	l, err := lfs.Format(ldev, clk, lfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	clk = sim.NewClock()
	fdev := disk.New(sim.SmallModel(), clk)
	f, err := ffs.Format(fdev, clk, ffs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return []logHost{
		{"lfs", l, ldev, func() int64 { return l.Stats().InodePackBlocks }},
		{"ffs", f, fdev, func() int64 { return f.Stats().SyncInodeStores }},
	}
}

// readBlock returns data block n of the segment file at path.
func readBlock(t *testing.T, fsys vfs.FileSystem, path string, n int64) []byte {
	t.Helper()
	f, err := fsys.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, BlockSize)
	if _, err := f.ReadAt(b, blockFileOff(n)); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestForceInsidePreallocatedSegment: Create makes segment 1 at full length,
// and every force inside it — including each that starts a new block — leaves
// the file's size and block map alone, so it writes no inode. On FFS it is
// exactly one device write: the tail block, or the tail block and the next,
// which the preallocation placed beside it.
func TestForceInsidePreallocatedSegment(t *testing.T) {
	for _, h := range logHosts(t) {
		t.Run(h.name, func(t *testing.T) {
			m, err := Create(h.fsys, "/log", Options{})
			if err != nil {
				t.Fatal(err)
			}
			f := m.active().f
			if f == nil {
				t.Fatal("Create left segment 1 to the first force")
			}
			if size, _ := f.Size(); size != segFileSize(DefaultSegmentBytes) {
				t.Fatalf("segment 1 is %d bytes, want %d", size, segFileSize(DefaultSegmentBytes))
			}
			img, page := make([]byte, 700), make([]byte, BlockSize)
			crossed := 0
			for txn := uint64(1); txn <= 40; txn++ {
				// The transaction's page read takes the arm off the log, as
				// at MPL 1: a queue sweep that starts inside the two blocks
				// of a crossing force would split them.
				if err := h.dev.Read(0, page); err != nil {
					t.Fatal(err)
				}
				tail, writes, inodes := m.active().durable/PayloadSize, h.dev.Stats().Writes, h.inodes()
				m.LogUpdate(txn, 1, int64(txn), 0, img, img)
				if err := logCommit(m, txn); err != nil {
					t.Fatal(err)
				}
				if size, _ := f.Size(); size != segFileSize(DefaultSegmentBytes) {
					t.Fatalf("force %d changed the segment's size to %d", txn, size)
				}
				if got := h.inodes() - inodes; got != 0 {
					t.Fatalf("force %d wrote the inode %d times", txn, got)
				}
				if got := h.dev.Stats().Writes - writes; h.name == "ffs" && got != 1 {
					t.Fatalf("force %d took %d device writes, want 1", txn, got)
				}
				if (m.active().durable-1)/PayloadSize != tail {
					crossed++
				}
			}
			if crossed < 10 {
				t.Fatalf("only %d forces started a new block; the test needs more", crossed)
			}
			if m.Stats().Segments != 1 {
				t.Fatalf("%d segments created, want 1", m.Stats().Segments)
			}
		})
	}
}

// TestTornTailClearedInPlace forces a record that spans three blocks, then
// tears the force the way the device can — its last block never written, the
// one before it whole — and checks that Open stops at the last whole record
// and clears the torn bytes in place: the tail block's bytes past that record
// zeroed, the stale continuation block after it zeroed, the file's
// preallocated length kept. Left behind, that block would be read as part of
// the stream once later forces fill the block before it. The next force still
// writes no inode.
func TestTornTailClearedInPlace(t *testing.T) {
	for _, h := range logHosts(t) {
		t.Run(h.name, func(t *testing.T) {
			m, err := Create(h.fsys, "/log", Options{})
			if err != nil {
				t.Fatal(err)
			}
			m.LogUpdate(1, 1, 0, 0, []byte("good"), []byte("good"))
			logCommit(m, 1)
			intactEnd := m.End()
			big := make([]byte, 5*PayloadSize/4) // before+after ≈ 2.5 blocks
			for i := range big {
				big[i] = byte(i)
			}
			m.LogUpdate(9, 1, 3, 0, big, big)
			m.Force()
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			const seg = "/log.1.txnlog"
			f, err := h.fsys.Open(seg)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteAt(make([]byte, BlockSize), blockFileOff(2))
			f.Sync()
			f.Close()
			if _, ok := decodeBlock(readBlock(t, h.fsys, seg, 1)); !ok {
				t.Fatal("the tear should leave block 1 a valid continuation block")
			}

			m2, err := Open(h.fsys, "/log", Options{})
			if err != nil {
				t.Fatalf("open with torn tail must not fail: %v", err)
			}
			if m2.End() != intactEnd {
				t.Fatalf("end = %v, want %v (torn record dropped)", m2.End(), intactEnd)
			}
			f2 := m2.active().f
			if size, _ := f2.Size(); size != segFileSize(DefaultSegmentBytes) {
				t.Fatalf("file size %d after open, want the preallocated %d", size, segFileSize(DefaultSegmentBytes))
			}
			tail := readBlock(t, h.fsys, seg, 0)
			if _, ok := decodeBlock(tail); !ok || !frame.IsZero(tail[blockHdrSize+intactEnd.Offset():]) {
				t.Fatalf("tail block: header valid %v, want it valid and zeros past stream byte %d", ok, intactEnd.Offset())
			}
			for n := int64(1); n < 3; n++ {
				if !frame.IsZero(readBlock(t, h.fsys, seg, n)) {
					t.Fatalf("block %d not cleared", n)
				}
			}
			winners, losers, err := recoverLog(m2, pageStore{}.apply)
			if err != nil {
				t.Fatal(err)
			}
			if winners != 1 || losers != 0 {
				t.Fatalf("winners=%d losers=%d, want 1/0", winners, losers)
			}
			inodes := h.inodes()
			m2.LogUpdate(2, 1, 0, 0, big, big)
			if err := logCommit(m2, 2); err != nil {
				t.Fatal(err)
			}
			if got := h.inodes() - inodes; got != 0 {
				t.Fatalf("the force after recovery wrote the inode %d times", got)
			}
			if recs, _ := m2.Scan(); len(recs) != 4 {
				t.Fatalf("%d records after append, want 4", len(recs))
			}
		})
	}
}

// TestSecondForceWritesNoByteOfSectorZero: a block's header is written once,
// by the force that starts the block, and records validate themselves, so a
// force that appends to the block changes no byte of its first sector and FFS
// moves none. Sector 0 is overwritten on the device behind the file system's
// back between two forces; the second force leaves it so and writes its
// records into the sectors after it.
func TestSecondForceWritesNoByteOfSectorZero(t *testing.T) {
	h := logHosts(t)[1]
	if h.name != "ffs" {
		t.Fatalf("host %s, want ffs", h.name)
	}
	m, err := Create(h.fsys, "/log", Options{})
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, 400) // an 845-byte update: the stream leaves sector 0
	m.LogUpdate(1, 1, 1, 0, img, img)
	if err := logCommit(m, 1); err != nil {
		t.Fatal(err)
	}
	const seg = "/log.1.txnlog"
	first := readBlock(t, h.fsys, seg, 0)
	addr := int64(-1)
	for a := int64(0); a < h.dev.NumBlocks() && addr < 0; a++ {
		if b, _ := h.dev.Peek(a); bytes.Equal(b, first) {
			addr = a
		}
	}
	if addr < 0 {
		t.Fatal("no device block holds the segment's first data block")
	}
	poison := bytes.Repeat([]byte{0xee}, disk.SectorSize)
	if err := h.dev.WriteRange(addr, [][]byte{append(poison, first[disk.SectorSize:]...)}, 0, 1); err != nil {
		t.Fatal(err)
	}
	m.LogUpdate(2, 1, 2, 0, img, img)
	if err := logCommit(m, 2); err != nil {
		t.Fatal(err)
	}
	got, _ := h.dev.Peek(addr)
	if !bytes.Equal(got[:disk.SectorSize], poison) {
		t.Fatal("the second force wrote the block's first sector")
	}
	if want := readBlock(t, h.fsys, seg, 0); bytes.Equal(want, first) || !bytes.Equal(got[disk.SectorSize:], want[disk.SectorSize:]) {
		t.Fatal("the second force's records are not on the device past the first sector")
	}
}

// TestTornTailRewriteKeepsDurableRecords: a force appends to the tail block
// in place, and on FFS it moves only the sectors its new records fill, so a
// crash can leave any prefix of those sectors new and the rest old. The
// rewrite changes no byte of the header's sector; at every sector boundary,
// recovery must return every record the earlier force made durable and, of
// the torn force's, only those that reached the disk whole — a tear never
// loses an acknowledged commit, nor yields a record the log never held.
func TestTornTailRewriteKeepsDurableRecords(t *testing.T) {
	before, after, anc, tail := tornTail(t)
	scan := func(seg []byte) ([]Record, LSN) {
		t.Helper()
		m, err := Open(installLog(anc, seg, true), "/log", Options{})
		if err != nil {
			t.Fatal(err)
		}
		recs, err := m.Scan()
		if err != nil {
			t.Fatal(err)
		}
		return recs, m.End()
	}
	if !bytes.Equal(before[tail:tail+disk.SectorSize], after[tail:tail+disk.SectorSize]) {
		t.Fatal("the second force changed the tail block's first sector")
	}
	want, _ := scan(before)
	all, _ := scan(after)
	if len(all) <= len(want) {
		t.Fatalf("the rewrite made %d records durable, the force before it %d: it added none", len(all), len(want))
	}
	for k := 0; k <= BlockSize/disk.SectorSize; k++ {
		got, end := scan(tornAt(before, after, tail, k))
		if len(got) < len(want) || len(got) > len(all) || !reflect.DeepEqual(got, all[:len(got)]) {
			t.Fatalf("torn after %d sectors: recovered %d records, want the %d durable before the rewrite and a prefix of the rest",
				k, len(got), len(want))
		}
		last := got[len(got)-1]
		if wantEnd := makeLSN(1, last.LSN.Offset()+int64(recSize(&last))); end != wantEnd {
			t.Fatalf("torn after %d sectors: the log ends at %v, its last record at %v", k, end, wantEnd)
		}
	}
}

func TestRotationAcrossSegments(t *testing.T) {
	m, fsys := newLogOpts(t, Options{SegmentBytes: 300})
	const n = 40
	for txn := uint64(1); txn <= n; txn++ {
		m.LogUpdate(txn, 1, int64(txn), 0, []byte("bbbb"), []byte("aaaa"))
		if err := logCommit(m, txn); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Rotations == 0 || st.Segments < 2 {
		t.Fatalf("expected rotations with a 300-byte threshold: %+v", st)
	}
	recs, err := m.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2*n {
		t.Fatalf("scan across segments = %d records, want %d", len(recs), 2*n)
	}
	// LSNs strictly increase, crossing segment sequences.
	for i := 1; i < len(recs); i++ {
		if recs[i].LSN <= recs[i-1].LSN {
			t.Fatalf("LSNs not increasing: %v then %v", recs[i-1].LSN, recs[i].LSN)
		}
	}
	if first, last := recs[0].LSN.Segment(), recs[len(recs)-1].LSN.Segment(); last <= first {
		t.Fatalf("expected records in multiple segments, got %d..%d", first, last)
	}
	// Sealed segment files exist on disk.
	if _, err := fsys.Stat(segName("/log", 1)); err != nil {
		t.Fatalf("segment 1 missing: %v", err)
	}
	// Recovery across the whole multi-segment log sees every winner.
	store := pageStore{}
	w, l, err := recoverLog(m, store.apply)
	if err != nil {
		t.Fatal(err)
	}
	if w != n || l != 0 {
		t.Fatalf("winners=%d losers=%d, want %d/0", w, l, n)
	}
}

func TestCheckpointTruncatesDeadSegments(t *testing.T) {
	m, fsys := newLogOpts(t, Options{SegmentBytes: 300})
	for txn := uint64(1); txn <= 30; txn++ {
		m.LogUpdate(txn, 1, int64(txn), 0, []byte("bbbb"), []byte("aaaa"))
		logCommit(m, txn)
	}
	low := m.lowWater
	if low != 1 {
		t.Fatalf("low water before checkpoint = %d, want 1", low)
	}
	if _, err := m.LogCheckpoint(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if m.lowWater <= low {
		t.Fatal("checkpoint did not advance the low-water mark")
	}
	if st.SegmentsDeleted == 0 {
		t.Fatalf("checkpoint did not delete dead segments: %+v", st)
	}
	for seq := uint64(1); seq < m.lowWater; seq++ {
		if _, err := fsys.Stat(segName("/log", seq)); err == nil {
			t.Fatalf("dead segment %d still exists", seq)
		}
	}
	// The live tail still scans.
	recs, err := m.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Type != RecCheckpoint {
		t.Fatalf("post-truncation scan = %d records", len(recs))
	}
}

// TestBoundedRecoveryScan is the acceptance test for bounded recovery: after
// a checkpoint followed by more traffic and a reopen, the recovery scan
// starts at the checkpoint — reading only segments at or after its low-water
// mark — not at the beginning of history.
func TestBoundedRecoveryScan(t *testing.T) {
	m, fsys := newLogOpts(t, Options{SegmentBytes: 300})
	for txn := uint64(1); txn <= 30; txn++ {
		m.LogUpdate(txn, 1, int64(txn), 0, []byte("bbbb"), []byte("aaaa"))
		logCommit(m, txn)
	}
	if _, err := m.LogCheckpoint(); err != nil {
		t.Fatal(err)
	}
	ckpt := m.ckptLSN
	totalSegs := m.stats.Segments
	for txn := uint64(31); txn <= 36; txn++ {
		m.LogUpdate(txn, 1, int64(txn), 0, []byte("bbbb"), []byte("aaaa"))
		logCommit(m, txn)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(fsys, "/log", Options{SegmentBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	store := pageStore{}
	w, _, err := recoverLog(m2, store.apply)
	if err != nil {
		t.Fatal(err)
	}
	if w != 6 {
		t.Fatalf("winners = %d, want 6 (post-checkpoint only)", w)
	}
	scan := m2.LastScanStats()
	if scan.StartLSN != ckpt {
		t.Fatalf("scan started at %v, want the checkpoint %v", scan.StartLSN, ckpt)
	}
	if scan.StartLSN.Segment() < m2.lowWater {
		t.Fatalf("scan start segment %d below low water %d", scan.StartLSN.Segment(), m2.lowWater)
	}
	liveSegs := int64(m2.active().seq - ckpt.Segment() + 1)
	if scan.Segments > liveSegs {
		t.Fatalf("scan touched %d segments, live tail is only %d", scan.Segments, liveSegs)
	}
	if scan.Segments >= totalSegs {
		t.Fatalf("scan touched %d segments — not bounded (history had %d)", scan.Segments, totalSegs)
	}
}

// TestRecoverFromMidSegmentCheckpoint checks recovery from a checkpoint that
// starts neither its segment nor its block, in a segment that has since
// sealed: the scan must start at the checkpoint record's own byte — block
// Offset/PayloadSize, byte Offset%PayloadSize — so every transaction after
// the checkpoint is a winner, and no block before the checkpoint's is read.
// (A scan that began decoding at the first byte of the checkpoint's block
// met the tail of an earlier record there, took it for a torn log and
// dropped every later commit.)
func TestRecoverFromMidSegmentCheckpoint(t *testing.T) {
	const segBytes = 16 * PayloadSize
	for _, tc := range []struct {
		image     int   // bytes in each before- and after-image
		ckptBlock int64 // block of segment 1 the checkpoint lands in
	}{
		{2040, 8},
		{700, 2},
		{300, 1},
	} {
		t.Run(fmt.Sprintf("image%d", tc.image), func(t *testing.T) {
			m, fsys := newLogOpts(t, Options{SegmentBytes: segBytes})
			img := make([]byte, tc.image)
			txn := uint64(0)
			logTxn := func() {
				txn++
				m.LogUpdate(txn, 1, int64(txn), 0, img, img)
				if err := logCommit(m, txn); err != nil {
					t.Fatal(err)
				}
			}
			for txn < 8 {
				logTxn()
			}
			ckpt, err := m.LogCheckpoint()
			if err != nil {
				t.Fatal(err)
			}
			if ckpt.Segment() != 1 || ckpt.Offset()/PayloadSize != tc.ckptBlock || ckpt.Offset()%PayloadSize == 0 {
				t.Fatalf("checkpoint at %v, want mid-block in block %d of segment 1", ckpt, tc.ckptBlock)
			}
			// Log past the rotation so the checkpoint's segment seals and is
			// read back from disk, then a few transactions more.
			for m.active().seq == ckpt.Segment() {
				logTxn()
			}
			for i := 0; i < 3; i++ {
				logTxn()
			}
			post := int(txn - 8)
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}

			m2, err := Open(fsys, "/log", Options{SegmentBytes: segBytes})
			if err != nil {
				t.Fatal(err)
			}
			w, l, err := recoverLog(m2, pageStore{}.apply)
			if err != nil {
				t.Fatal(err)
			}
			if w != post || l != 0 {
				t.Fatalf("winners=%d losers=%d, want %d/0: post-checkpoint commits lost", w, l, post)
			}
			scan := m2.LastScanStats()
			if scan.StartLSN != ckpt || scan.Records != int64(1+2*post) {
				t.Fatalf("scan from %v read %d records, want %v and %d", scan.StartLSN, scan.Records, ckpt, 1+2*post)
			}
			// Blocks read: segment 1 from the checkpoint's block on, then the
			// active segment's durable blocks — none before the checkpoint.
			f, err := fsys.Open(segName("/log", ckpt.Segment()))
			if err != nil {
				t.Fatal(err)
			}
			size, _ := f.Size()
			f.Close()
			sealedBlocks := size/BlockSize - 1
			act := m2.active()
			want := sealedBlocks - tc.ckptBlock + (act.durable+PayloadSize-1)/PayloadSize
			if scan.Blocks != want {
				t.Fatalf("scan read %d blocks, want %d (segment 1 holds %d, %d of them before the checkpoint)",
					scan.Blocks, want, sealedBlocks, tc.ckptBlock)
			}
			t.Logf("checkpoint %v: %d winners, %d blocks read", ckpt, w, scan.Blocks)
		})
	}
}

// TestGroupCommitAcrossRotation exercises the mid-batch rotation case: a
// batch of AppendCommit records straddles a segment boundary, and the single
// Force that commits the batch must make both segments durable, in order.
func TestGroupCommitAcrossRotation(t *testing.T) {
	m, fsys := newLogOpts(t, Options{SegmentBytes: 200})
	const n = 12
	for txn := uint64(1); txn <= n; txn++ {
		m.LogUpdate(txn, 1, int64(txn), 0, []byte("bb"), []byte("aa"))
		if _, err := m.AppendCommit(txn); err != nil {
			t.Fatal(err)
		}
		if txn > 1 {
			m.NoteAbsorbed()
		}
	}
	if len(m.writers) < 2 {
		t.Fatalf("batch did not straddle a rotation (writers=%d); shrink SegmentBytes", len(m.writers))
	}
	if err := m.Force(); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Forces; got != 1 {
		t.Fatalf("Forces = %d, want 1 for the whole batch", got)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Every commit in the batch is durable and ordered after reopen.
	m2, err := Open(fsys, "/log", Options{SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := m2.Scan()
	if err != nil {
		t.Fatal(err)
	}
	var commits []uint64
	for _, r := range recs {
		if r.Type == RecCommit {
			commits = append(commits, r.Txn)
		}
	}
	if len(commits) != n {
		t.Fatalf("%d durable commits after mid-batch rotation, want %d", len(commits), n)
	}
	for i, txn := range commits {
		if txn != uint64(i+1) {
			t.Fatalf("commit order broken: %v", commits)
		}
	}
}

// TestDurableThrough: a position End returned is durable once a Force after
// it has returned, and not before — within a segment, in a sealed segment not
// yet drained, and in one drained and closed by a Force across a rotation.
func TestDurableThrough(t *testing.T) {
	m, _ := newLogOpts(t, Options{SegmentBytes: 200})
	m.LogUpdate(1, 1, 0, 0, []byte("bb"), []byte("aa"))
	first := m.End()
	if m.DurableThrough(first) {
		t.Fatal("an appended record is durable before any force")
	}
	if err := m.Force(); err != nil {
		t.Fatal(err)
	}
	if !m.DurableThrough(first) {
		t.Fatal("a forced record is not durable")
	}
	var ends []LSN
	for txn := uint64(2); len(m.writers) < 3; txn++ {
		m.LogUpdate(txn, 1, int64(txn), 0, []byte("bb"), []byte("aa"))
		ends = append(ends, m.End())
	}
	if m.writers[0].seq != first.Segment() || !m.writers[0].sealed {
		t.Fatalf("segment %d is not sealed and undrained", first.Segment())
	}
	if !m.DurableThrough(first) {
		t.Fatal("a sealed segment's forced prefix is not durable")
	}
	for _, end := range ends {
		if m.DurableThrough(end) {
			t.Fatalf("end %v is durable before any force", end)
		}
	}
	if err := m.Force(); err != nil {
		t.Fatal(err)
	}
	if m.writers[0].seq == first.Segment() {
		t.Fatal("Force did not drain the sealed segments")
	}
	for _, end := range append(ends, first) {
		if !m.DurableThrough(end) {
			t.Fatalf("end %v is not durable after Force", end)
		}
	}
	m.LogUpdate(99, 1, 0, 0, []byte("bb"), []byte("aa"))
	if m.DurableThrough(m.End()) || !m.DurableThrough(ends[len(ends)-1]) {
		t.Fatal("a later append moved an earlier end's durability")
	}
}

// TestTwoRunByteIdenticalMultiSegment runs an identical multi-segment
// workload (with mid-batch rotations) twice on fresh file systems, crashes
// into recovery, and requires byte-identical segment files, identical apply
// traces, and identical scan stats — the determinism contract for the
// segmented log.
func TestTwoRunByteIdenticalMultiSegment(t *testing.T) {
	type applied struct {
		File   uint64
		Block  int64
		Offset uint32
		Data   string
	}
	run := func() (map[string][]byte, []applied, ScanStats) {
		fsys := newFS(t)
		m, err := Create(fsys, "/log", Options{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		for txn := uint64(1); txn <= 25; txn++ {
			m.LogUpdate(txn, 1, int64(txn%5), uint32(txn%7), []byte("bbbb"), []byte("aaaa"))
			if _, err := m.AppendCommit(txn); err != nil {
				t.Fatal(err)
			}
			if txn%4 == 0 { // group-commit style batched forces across rotations
				if err := m.Force(); err != nil {
					t.Fatal(err)
				}
			}
			if txn == 12 {
				if _, err := m.LogCheckpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		m.Force()
		// Crash: no Close. Reopen and recover.
		m2, err := Open(fsys, "/log", Options{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		var trace []applied
		if _, _, err := recoverLog(m2, func(file uint64, block int64, offset uint32, data []byte) error {
			trace = append(trace, applied{file, block, offset, string(data)})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		scan := m2.LastScanStats()
		if err := m2.Close(); err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		seqs, err := discoverSegments(fsys, "/log")
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range seqs {
			name := segName("/log", seq)
			f, err := fsys.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			sz, _ := f.Size()
			raw := make([]byte, sz)
			f.ReadAt(raw, 0)
			f.Close()
			files[name] = raw
		}
		return files, trace, scan
	}

	files1, trace1, scan1 := run()
	files2, trace2, scan2 := run()
	if !reflect.DeepEqual(trace1, trace2) {
		t.Fatal("recovery apply traces diverged between identical runs")
	}
	if scan1 != scan2 {
		t.Fatalf("scan stats diverged: %+v vs %+v", scan1, scan2)
	}
	if len(files1) == 0 || len(files1) != len(files2) {
		t.Fatalf("segment file sets differ: %d vs %d", len(files1), len(files2))
	}
	for name, raw := range files1 {
		if !bytes.Equal(raw, files2[name]) {
			t.Fatalf("segment file %s not byte-identical between runs", name)
		}
	}
}

func TestDumpReadableOnCleanAndTornLogs(t *testing.T) {
	m, fsys := newLogOpts(t, Options{SegmentBytes: 300})
	for txn := uint64(1); txn <= 10; txn++ {
		m.LogUpdate(txn, 1, int64(txn), 0, []byte("bbbb"), []byte("aaaa"))
		logCommit(m, txn)
	}
	m.LogCheckpoint()
	m.LogUpdate(11, 1, 11, 0, []byte("bbbb"), []byte("aaaa"))
	logCommit(m, 11)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Dump(&b, fsys, "/log"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"anchor", "segment", "block", "commit", "ckpt", "low-water"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "BAD CRC") {
		t.Fatalf("dump of a clean log flags a torn block:\n%s", out)
	}
	// Tear the active segment after its stream and dump again: must report,
	// not fail.
	seqs, _ := discoverSegments(fsys, "/log")
	f, err := fsys.Open(segName("/log", seqs[len(seqs)-1]))
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, BlockSize)
	torn[100] = 0xde
	f.WriteAt(torn, blockFileOff(1))
	f.Sync()
	f.Close()
	b.Reset()
	if err := Dump(&b, fsys, "/log"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "BAD CRC") {
		t.Fatal("dump did not flag the torn block")
	}
}

func TestScanStatsAccountsBlocks(t *testing.T) {
	m, _ := newLog(t)
	big := make([]byte, 3*PayloadSize/2)
	m.LogUpdate(1, 1, 0, 0, big, big) // spans several blocks
	logCommit(m, 1)
	if _, err := m.Scan(); err != nil {
		t.Fatal(err)
	}
	scan := m.LastScanStats()
	if scan.Records != 2 || scan.Blocks < 3 || scan.Bytes == 0 {
		t.Fatalf("scan stats = %+v", scan)
	}
}
