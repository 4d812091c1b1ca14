package lfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/vfs"
)

func newFS(t *testing.T) (*FS, *disk.Device, *sim.Clock) {
	t.Helper()
	clk := sim.NewClock()
	dev := disk.New(sim.SmallModel(), clk)
	fs, err := Format(dev, clk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return fs, dev, clk
}

// tinyFS creates a small file system that fills quickly, for cleaner tests.
func tinyFS(t *testing.T) (*FS, *disk.Device, *sim.Clock) {
	t.Helper()
	clk := sim.NewClock()
	model := sim.SmallModel()
	model.NumBlocks = 2048 // 8 MB
	dev := disk.New(model, clk)
	fs, err := Format(dev, clk, Options{SegmentBlocks: 64, CheckpointBlocks: 32, CacheBlocks: 128})
	if err != nil {
		t.Fatal(err)
	}
	return fs, dev, clk
}

// cleanOnce runs one synchronous cleaning pass — the pass cleanLocked repeats
// until the free target — whatever the free count, and reports whether it
// found victims.
func cleanOnce(fs *FS) (bool, error) {
	fs.cleaning = true
	defer func() { fs.cleaning = false }()
	victims, err := fs.victimsLocked(fs.sb.SegmentBlocks - minCleanGain)
	if err != nil || len(victims) == 0 {
		return false, err
	}
	return true, fs.cleanBatchLocked(victims)
}

func writeFile(t *testing.T, fs vfs.FileSystem, path string, data []byte) {
	t.Helper()
	f, err := fs.Create(path)
	if err != nil {
		t.Fatalf("Create(%s): %v", path, err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("WriteAt(%s): %v", path, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, fs vfs.FileSystem, path string) []byte {
	t.Helper()
	f, err := fs.Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil {
		t.Fatalf("ReadAt(%s): %v", path, err)
	}
	return data
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

func TestCreateWriteReadSmall(t *testing.T) {
	fs, _, _ := newFS(t)
	data := pattern(1000, 1)
	writeFile(t, fs, "/hello", data)
	if got := readFile(t, fs, "/hello"); !bytes.Equal(got, data) {
		t.Fatal("read back mismatch")
	}
}

func TestWriteSpanningBlocks(t *testing.T) {
	fs, _, _ := newFS(t)
	data := pattern(3*4096+123, 2)
	writeFile(t, fs, "/multi", data)
	if got := readFile(t, fs, "/multi"); !bytes.Equal(got, data) {
		t.Fatal("multi-block read back mismatch")
	}
}

func TestPartialBlockOverwrite(t *testing.T) {
	fs, _, _ := newFS(t)
	data := pattern(8192, 3)
	writeFile(t, fs, "/f", data)
	f, err := fs.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	patch := []byte("PATCHED")
	if _, err := f.WriteAt(patch, 4090); err != nil {
		t.Fatal(err)
	}
	f.Close()
	copy(data[4090:], patch)
	if got := readFile(t, fs, "/f"); !bytes.Equal(got, data) {
		t.Fatal("patched read back mismatch")
	}
}

func TestReadPastEOF(t *testing.T) {
	fs, _, _ := newFS(t)
	writeFile(t, fs, "/short", []byte("abc"))
	f, _ := fs.Open("/short")
	defer f.Close()
	buf := make([]byte, 10)
	n, err := f.ReadAt(buf, 0)
	if err != nil || n != 3 {
		t.Fatalf("ReadAt = %d,%v want 3,nil", n, err)
	}
	n, err = f.ReadAt(buf, 100)
	if err != nil || n != 0 {
		t.Fatalf("ReadAt past EOF = %d,%v want 0,nil", n, err)
	}
}

func TestSparseFileReadsZeros(t *testing.T) {
	fs, _, _ := newFS(t)
	f, err := fs.Create("/sparse")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("end"), 100000); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	if _, err := f.ReadAt(buf, 50000); err != nil {
		t.Fatal(err)
	}
	for _, v := range buf {
		if v != 0 {
			t.Fatal("hole should read as zeros")
		}
	}
	f.Close()
}

func TestIndirectBlocks(t *testing.T) {
	fs, _, _ := newFS(t)
	// Past the direct range (12 × 4 KB = 48 KB).
	data := pattern(200*1024, 4)
	writeFile(t, fs, "/big", data)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, fs, "/big"); !bytes.Equal(got, data) {
		t.Fatal("indirect-range read back mismatch")
	}
}

func TestDoubleIndirectBlocks(t *testing.T) {
	fs, _, _ := newFS(t)
	// Write sparsely past 12+512 blocks (≈ 2.05 MB) to hit the double
	// indirect path without filling the small disk.
	f, err := fs.Create("/huge")
	if err != nil {
		t.Fatal(err)
	}
	off := int64((NDirect + 512 + 100) * 4096)
	data := pattern(5000, 5)
	if _, err := f.WriteAt(data, off); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	f, _ = fs.Open("/huge")
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, off); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if !bytes.Equal(got, data) {
		t.Fatal("double-indirect read back mismatch")
	}
}

func TestTruncateShrinkAndGrow(t *testing.T) {
	fs, _, _ := newFS(t)
	data := pattern(10000, 6)
	writeFile(t, fs, "/t", data)
	f, _ := fs.Open("/t")
	if err := f.Truncate(5000); err != nil {
		t.Fatal(err)
	}
	if sz, _ := f.Size(); sz != 5000 {
		t.Fatalf("size after shrink = %d", sz)
	}
	if err := f.Truncate(8000); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3000)
	if _, err := f.ReadAt(buf, 5000); err != nil {
		t.Fatal(err)
	}
	for _, v := range buf {
		if v != 0 {
			t.Fatal("re-grown region must read as zeros")
		}
	}
	f.Close()
}

func TestDirectories(t *testing.T) {
	fs, _, _ := newFS(t)
	if err := fs.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/a/b"); err != nil {
		t.Fatal(err)
	}
	writeFile(t, fs, "/a/b/file1", []byte("one"))
	writeFile(t, fs, "/a/file2", []byte("two"))
	entries, err := fs.ReadDir("/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name != "b" || entries[1].Name != "file2" {
		t.Fatalf("ReadDir(/a) = %+v", entries)
	}
	info, err := fs.Stat("/a/b")
	if err != nil || !info.IsDir {
		t.Fatalf("Stat(/a/b) = %+v, %v", info, err)
	}
	if got := readFile(t, fs, "/a/b/file1"); string(got) != "one" {
		t.Fatal("nested file content wrong")
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	fs, _, _ := newFS(t)
	writeFile(t, fs, "/dup", []byte("x"))
	if _, err := fs.Create("/dup"); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("got %v, want ErrExist", err)
	}
}

func TestOpenMissingFails(t *testing.T) {
	fs, _, _ := newFS(t)
	if _, err := fs.Open("/nope"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("got %v, want ErrNotExist", err)
	}
}

func TestRemove(t *testing.T) {
	fs, _, _ := newFS(t)
	writeFile(t, fs, "/gone", pattern(9000, 7))
	if err := fs.Remove("/gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("/gone"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("got %v after remove", err)
	}
	// The name can be reused.
	writeFile(t, fs, "/gone", []byte("again"))
	if got := readFile(t, fs, "/gone"); string(got) != "again" {
		t.Fatal("recreated file content wrong")
	}
}

func TestRemoveOpenFileFails(t *testing.T) {
	fs, _, _ := newFS(t)
	writeFile(t, fs, "/busy", []byte("x"))
	f, _ := fs.Open("/busy")
	if err := fs.Remove("/busy"); err == nil {
		t.Fatal("removing an open file should fail")
	}
	f.Close()
	if err := fs.Remove("/busy"); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveNonEmptyDirFails(t *testing.T) {
	fs, _, _ := newFS(t)
	fs.Mkdir("/d")
	writeFile(t, fs, "/d/x", []byte("x"))
	if err := fs.Remove("/d"); !errors.Is(err, vfs.ErrNotEmpty) {
		t.Fatalf("got %v, want ErrNotEmpty", err)
	}
	fs.Remove("/d/x")
	if err := fs.Remove("/d"); err != nil {
		t.Fatal(err)
	}
}

func TestTxnProtectAttribute(t *testing.T) {
	fs, _, _ := newFS(t)
	writeFile(t, fs, "/db", []byte("x"))
	if err := fs.SetTxnProtected("/db", true); err != nil {
		t.Fatal(err)
	}
	info, _ := fs.Stat("/db")
	if !info.TxnProtected {
		t.Fatal("attribute should be set")
	}
	// Attribute survives a remount.
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs2 := remount(t, fs)
	info, _ = fs2.Stat("/db")
	if !info.TxnProtected {
		t.Fatal("attribute should persist")
	}
	if err := fs2.SetTxnProtected("/db", false); err != nil {
		t.Fatal(err)
	}
	info, _ = fs2.Stat("/db")
	if info.TxnProtected {
		t.Fatal("attribute should clear")
	}
}

// remount simulates a clean unmount/mount cycle on the same device.
func remount(t *testing.T, fs *FS) *FS {
	t.Helper()
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(fs.dev, fs.clock, fs.opts)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	return fs2
}

func TestRemountPreservesData(t *testing.T) {
	fs, _, _ := newFS(t)
	data := pattern(100000, 8)
	fs.Mkdir("/dir")
	writeFile(t, fs, "/dir/f", data)
	fs2 := remount(t, fs)
	if got := readFile(t, fs2, "/dir/f"); !bytes.Equal(got, data) {
		t.Fatal("data lost across remount")
	}
	entries, err := fs2.ReadDir("/")
	if err != nil || len(entries) != 1 || entries[0].Name != "dir" {
		t.Fatalf("root listing after remount = %+v, %v", entries, err)
	}
}

func TestCrashRecoveryRollForward(t *testing.T) {
	fs, dev, clk := newFS(t)
	writeFile(t, fs, "/pre", []byte("before checkpoint"))
	if err := fs.Sync(); err != nil { // checkpoint
		t.Fatal(err)
	}
	// Write more data, flush to the log, but do NOT checkpoint.
	writeFile(t, fs, "/post", pattern(20000, 9))
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	// Crash: abandon the in-memory state entirely, remount from disk.
	fs2, err := Mount(dev, clk, fs.opts)
	if err != nil {
		t.Fatalf("Mount after crash: %v", err)
	}
	if got := readFile(t, fs2, "/pre"); string(got) != "before checkpoint" {
		t.Fatal("pre-checkpoint data lost")
	}
	if got := readFile(t, fs2, "/post"); !bytes.Equal(got, pattern(20000, 9)) {
		t.Fatal("roll-forward failed to recover post-checkpoint data")
	}
}

func TestCrashRecoveryDeletion(t *testing.T) {
	fs, dev, clk := newFS(t)
	writeFile(t, fs, "/doomed", []byte("delete me"))
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/doomed"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Flush(); err != nil { // logs the deletion record, no checkpoint
		t.Fatal(err)
	}
	fs2, err := Mount(dev, clk, fs.opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.Stat("/doomed"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("deletion not recovered: %v", err)
	}
}

func TestCrashLosesUnflushedOnly(t *testing.T) {
	fs, dev, clk := newFS(t)
	writeFile(t, fs, "/durable", []byte("safe"))
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	writeFile(t, fs, "/volatile", []byte("lost")) // never flushed
	fs2, err := Mount(dev, clk, fs.opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, fs2, "/durable"); string(got) != "safe" {
		t.Fatal("flushed data must survive")
	}
	if _, err := fs2.Stat("/volatile"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("unflushed create should be lost, got %v", err)
	}
}

// TestNoOverwriteBeforeImage verifies the property the embedded transaction
// manager depends on (§2): after modifying a block in the cache and flushing,
// the previous version still exists at its old disk address.
func TestNoOverwriteBeforeImage(t *testing.T) {
	fs, dev, _ := newFS(t)
	writeFile(t, fs, "/f", pattern(4096, 10))
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	in, _ := fs.loadInode(fs.mustIno(t, "/f"))
	oldAddr, _ := fs.blockAddr(in, 0)
	if oldAddr == 0 {
		t.Fatal("block should be on disk")
	}
	// Overwrite and flush: LFS must write a NEW address.
	f, _ := fs.Open("/f")
	f.WriteAt(pattern(4096, 11), 0)
	f.Close()
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	newAddr, _ := fs.blockAddr(in, 0)
	if newAddr == oldAddr {
		t.Fatal("LFS must not overwrite in place")
	}
	old, err := dev.Peek(oldAddr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(old, pattern(4096, 10)) {
		t.Fatal("before-image should survive at the old address")
	}
}

// mustIno resolves a path to its inode number (test helper).
func (fs *FS) mustIno(t *testing.T, path string) Ino {
	t.Helper()
	in, err := fs.LookupLocked(path)
	if err != nil {
		t.Fatal(err)
	}
	return in.Ino
}

func TestSegmentWritesAreSequential(t *testing.T) {
	fs, dev, _ := newFS(t)
	dev.ResetStats()
	data := pattern(256*1024, 12)
	writeFile(t, fs, "/seq", data)
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	st := dev.Stats()
	// 64 data blocks + metadata, written in a handful of runs: the number
	// of write operations (runs) must be far below the block count.
	if st.Writes > st.BlocksWrit/4 {
		t.Fatalf("expected batched writes: %d ops for %d blocks", st.Writes, st.BlocksWrit)
	}
}

func TestCleanerReclaimsSegments(t *testing.T) {
	fs, _, _ := tinyFS(t)
	// Fill a good chunk of the disk, then overwrite it all to make the
	// earlier segments dead.
	for round := 0; round < 3; round++ {
		f, err := fs.Open("/churn")
		if errors.Is(err, vfs.ErrNotExist) {
			f, err = fs.Create("/churn")
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(pattern(64*4096, byte(13+round)), 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	before := fs.free
	cleaned, err := cleanOnce(fs)
	if err != nil {
		t.Fatal(err)
	}
	if !cleaned {
		t.Fatal("there should be a cleanable segment")
	}
	if fs.free <= before {
		t.Fatalf("free segments %d should exceed %d after cleaning", fs.free, before)
	}
	// Data must survive cleaning.
	if got := readFile(t, fs, "/churn"); !bytes.Equal(got, pattern(64*4096, 15)) {
		t.Fatal("cleaner corrupted live data")
	}
	st := fs.Stats()
	if st.Cleaner.SegmentsCleaned == 0 {
		t.Fatal("cleaner stats not recorded")
	}
}

// TestCleanerRelocatesInOneStream: a pass writes every block it relocates as
// one stream at the log head, whatever the blocks' ages — no split into an
// old and a young group, and no segment sealed early between them. The two
// victims here hold /old, written first, and /young, written a segment's
// worth of partials later, beside overwritten churn.
func TestCleanerRelocatesInOneStream(t *testing.T) {
	fs, _, _ := tinyFS(t)
	put := func(path string, blocks int, seed byte) {
		t.Helper()
		f, err := fs.Open(path)
		if errors.Is(err, vfs.ErrNotExist) {
			f, err = fs.Create(path)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(pattern(blocks*4096, seed), 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	churn := byte(0)
	fillSegment := func() int64 {
		seg := fs.curSeg
		for fs.curSeg == seg {
			churn++
			put("/churn", 16, churn)
		}
		return seg
	}
	put("/old", 8, 100)
	oldSeg := fillSegment()
	put("/young", 8, 101)
	youngSeg := fillSegment()
	fillSegment() // the live churn leaves the victims

	// Start the pass on a fresh segment, so a segment change is a seal.
	fs.cleaning = true
	if err := fs.advanceSegmentLocked(); err != nil {
		t.Fatal(err)
	}
	head, partials := fs.curSeg, fs.Stats().PartialSegments
	if err := fs.cleanBatchLocked([]int64{oldSeg, youngSeg}); err != nil {
		t.Fatal(err)
	}
	fs.cleaning = false
	if n := fs.Stats().PartialSegments - partials; fs.curSeg != head || n != 1 {
		t.Fatalf("relocation wrote %d partial segments and moved the log head from segment %d to %d; want one partial in segment %d",
			n, head, fs.curSeg, head)
	}
	for _, seg := range []int64{oldSeg, youngSeg} {
		if fs.segs[seg].State != segFree {
			t.Fatalf("victim segment %d not freed", seg)
		}
	}
	if !bytes.Equal(readFile(t, fs, "/old"), pattern(8*4096, 100)) ||
		!bytes.Equal(readFile(t, fs, "/young"), pattern(8*4096, 101)) ||
		!bytes.Equal(readFile(t, fs, "/churn"), pattern(16*4096, churn)) {
		t.Fatal("cleaner corrupted live data")
	}
	if _, _, diff, err := fs.AuditUsage(); err != nil || len(diff) != 0 {
		t.Fatalf("usage after cleaning: %v %v", diff, err)
	}
}

func TestCleanerTriggersUnderPressure(t *testing.T) {
	fs, _, _ := tinyFS(t)
	// Keep rewriting one file; the log would exhaust the disk without the
	// cleaner reclaiming dead segments.
	data := pattern(128*1024, 20)
	for round := 0; round < 30; round++ {
		f, err := fs.Open("/wheel")
		if errors.Is(err, vfs.ErrNotExist) {
			f, err = fs.Create("/wheel")
		}
		if err != nil {
			t.Fatal(err)
		}
		data[0] = byte(round)
		if _, err := f.WriteAt(data, 0); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		f.Close()
		if err := fs.Sync(); err != nil {
			t.Fatalf("round %d sync: %v", round, err)
		}
	}
	st := fs.Stats()
	if st.Cleaner.SegmentsCleaned == 0 {
		t.Fatal("cleaner should have run under log pressure")
	}
	want := pattern(128*1024, 20)
	want[0] = 29
	if got := readFile(t, fs, "/wheel"); !bytes.Equal(got, want) {
		t.Fatal("data corrupted under cleaning pressure")
	}
}

// TestCleanerPoliciesBothWork rewrites one file until the log wraps and the
// cleaner must relocate its live blocks, then reads it back. The name dates
// from when a cost-benefit ranking ran beside greedy; greedy (emptiest
// segment first) is the one ranking left, and it runs as the only subtest.
func TestCleanerPoliciesBothWork(t *testing.T) {
	t.Run("greedy", func(t *testing.T) {
		clk := sim.NewClock()
		model := sim.SmallModel()
		model.NumBlocks = 2048
		dev := disk.New(model, clk)
		fs, err := Format(dev, clk, Options{SegmentBlocks: 64, CheckpointBlocks: 32, CacheBlocks: 128})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 100; round++ {
			f, err := fs.Open("/f")
			if errors.Is(err, vfs.ErrNotExist) {
				f, err = fs.Create("/f")
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(pattern(100*1024, byte(round)), 0); err != nil {
				t.Fatal(err)
			}
			f.Close()
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if fs.Stats().Cleaner.SegmentsCleaned == 0 {
			t.Fatal("cleaner never ran")
		}
		if got := readFile(t, fs, "/f"); !bytes.Equal(got, pattern(100*1024, 99)) {
			t.Fatal("data corrupted")
		}
	})
}

func TestRemountAfterCleaning(t *testing.T) {
	fs, _, _ := tinyFS(t)
	for round := 0; round < 10; round++ {
		f, err := fs.Open("/f")
		if errors.Is(err, vfs.ErrNotExist) {
			f, err = fs.Create("/f")
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(pattern(100*1024, byte(round)), 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
		fs.Sync()
	}
	if _, err := cleanOnce(fs); err != nil {
		t.Fatal(err)
	}
	fs2 := remount(t, fs)
	if got := readFile(t, fs2, "/f"); !bytes.Equal(got, pattern(100*1024, 9)) {
		t.Fatal("data lost after cleaning + remount")
	}
}

func TestDiskFullReturnsError(t *testing.T) {
	fs, _, _ := tinyFS(t)
	var err error
	for i := 0; i < 100 && err == nil; i++ {
		var f vfs.File
		f, err = fs.Create(fmt.Sprintf("/fill%d", i))
		if err != nil {
			break
		}
		_, err = f.WriteAt(pattern(256*1024, byte(i)), 0)
		f.Close()
		if err == nil {
			err = fs.Sync()
		}
	}
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("expected ErrNoSpace filling the disk, got %v", err)
	}
}

// Property test: a random sequence of writes at random offsets, interleaved
// with flushes and remounts, always reads back like an in-memory shadow copy.
func TestRandomWriteShadowProperty(t *testing.T) {
	fs, dev, clk := newFS(t)
	f, err := fs.Create("/shadow")
	if err != nil {
		t.Fatal(err)
	}
	const fileSize = 200 * 1024
	shadow := make([]byte, fileSize)
	rng := sim.NewRNG(77)

	check := func() error {
		got := make([]byte, fileSize)
		n, err := f.ReadAt(got, 0)
		if err != nil {
			return err
		}
		if !bytes.Equal(got[:n], shadow[:n]) {
			return errors.New("content diverged from shadow")
		}
		return nil
	}

	prop := func(seed uint16) bool {
		for i := 0; i < 20; i++ {
			off := rng.Int63n(fileSize - 1)
			length := 1 + rng.Intn(9000)
			if off+int64(length) > fileSize {
				length = int(fileSize - off)
			}
			data := pattern(length, byte(seed)+byte(i))
			if _, err := f.WriteAt(data, off); err != nil {
				return false
			}
			copy(shadow[off:], data)
		}
		if err := check(); err != nil {
			return false
		}
		if rng.Intn(2) == 0 {
			if err := fs.Sync(); err != nil {
				return false
			}
		}
		if rng.Intn(4) == 0 {
			// Clean unmount: flush, then mount fresh state from disk.
			if err := fs.Sync(); err != nil {
				return false
			}
			f.Close()
			fs2, err := Mount(dev, clk, fs.opts)
			if err != nil {
				return false
			}
			fs = fs2
			f, err = fs.Open("/shadow")
			if err != nil {
				return false
			}
		}
		return check() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	fs, _, _ := newFS(t)
	writeFile(t, fs, "/s", pattern(40000, 30))
	fs.Sync()
	st := fs.Stats()
	if st.PartialSegments == 0 || st.BlocksLogged == 0 || st.Checkpoints == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// A partial segment is a summary, the data and the blocks that map it.
	if st.BlocksLogged-st.PartialSegments-st.InodePackBlocks-st.PointerBlocks < 10 {
		t.Fatalf("the log holds fewer than the file's 10 data blocks beside its summaries, packs and pointer blocks: %+v", st)
	}
}

func TestManySmallFiles(t *testing.T) {
	fs, _, _ := newFS(t)
	if err := fs.Mkdir("/lots"); err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		writeFile(t, fs, fmt.Sprintf("/lots/f%03d", i), pattern(100+i, byte(i)))
	}
	fs2 := remount(t, fs)
	entries, err := fs2.ReadDir("/lots")
	if err != nil || len(entries) != n {
		t.Fatalf("ReadDir: %d entries, %v", len(entries), err)
	}
	for i := 0; i < n; i += 17 {
		got := readFile(t, fs2, fmt.Sprintf("/lots/f%03d", i))
		if !bytes.Equal(got, pattern(100+i, byte(i))) {
			t.Fatalf("file %d corrupted", i)
		}
	}
}

func TestMountRejectsGarbage(t *testing.T) {
	clk := sim.NewClock()
	dev := disk.New(sim.SmallModel(), clk)
	if _, err := Mount(dev, clk, Options{}); err == nil {
		t.Fatal("mounting an unformatted device should fail")
	}
}

// TestCoalesceRestoresSequentialLayout exercises the §5.3/§5.4 enhancement:
// after random updates scatter a file across the log, Coalesce rewrites it
// in logical order and sequential reads get fast again.
func TestCoalesceRestoresSequentialLayout(t *testing.T) {
	clk := sim.NewClock()
	model := sim.RZ55Model()
	model.NumBlocks = 16384 // 64 MB
	dev := disk.New(model, clk)
	fs, err := Format(dev, clk, Options{CacheBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 600
	data := pattern(blocks*4096, 1)
	writeFile(t, fs, "/db", data)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	// Random single-block updates scatter the file.
	rng := sim.NewRNG(3)
	f, _ := fs.Open("/db")
	for i := 0; i < 400; i++ {
		lbn := rng.Int63n(blocks)
		patch := pattern(4096, byte(i))
		f.WriteAt(patch, lbn*4096)
		copy(data[lbn*4096:], patch)
		if i%25 == 0 {
			fs.Sync()
		}
	}
	f.Close()
	fs.Sync()

	scanTime := func() time.Duration {
		// Cold cache: remount.
		fs2, err := Mount(dev, clk, Options{CacheBlocks: 64})
		if err != nil {
			t.Fatal(err)
		}
		g, err := fs2.Open("/db")
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		start := clk.Now()
		buf := make([]byte, 64*1024)
		for off := int64(0); off < blocks*4096; off += int64(len(buf)) {
			if _, err := g.ReadAt(buf, off); err != nil {
				t.Fatal(err)
			}
		}
		return clk.Now() - start
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fragmented := scanTime()

	// Coalesce on a freshly mounted image, then re-measure.
	fs3, err := Mount(dev, clk, Options{CacheBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs3.Coalesce("/db"); err != nil {
		t.Fatal(err)
	}
	if err := fs3.Sync(); err != nil {
		t.Fatal(err)
	}
	coalesced := scanTime()

	if coalesced*2 > fragmented {
		t.Fatalf("coalescing should at least halve the scan time: %v → %v", fragmented, coalesced)
	}
	// Contents unchanged.
	fs4, err := Mount(dev, clk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, fs4, "/db"); !bytes.Equal(got, data) {
		t.Fatal("coalesce corrupted the file")
	}
}

func TestCoalesceRejectsDirectories(t *testing.T) {
	fs, _, _ := newFS(t)
	fs.Mkdir("/d")
	if err := fs.Coalesce("/d"); !errors.Is(err, vfs.ErrIsDir) {
		t.Fatalf("got %v, want ErrIsDir", err)
	}
}

func TestCoalesceEmptyAndMissing(t *testing.T) {
	fs, _, _ := newFS(t)
	writeFile(t, fs, "/empty", nil)
	if err := fs.Coalesce("/empty"); err != nil {
		t.Fatalf("empty file: %v", err)
	}
	if err := fs.Coalesce("/nope"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("got %v, want ErrNotExist", err)
	}
}

// TestOrphanPressureFlush: evicting more dirty blocks than a segment's worth
// (the staging-buffer bound) must trigger a flush on the next operation
// instead of letting the stage grow without limit.
func TestOrphanPressureFlush(t *testing.T) {
	clk := sim.NewClock()
	dev := disk.New(sim.SmallModel(), clk)
	// Tiny cache: every write evicts.
	fs, err := Format(dev, clk, Options{CacheBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("/spill")
	if err != nil {
		t.Fatal(err)
	}
	// Dirty far more blocks than the cache holds; evictions stage them until
	// the staging bound (one segment = 128 blocks) trips.
	data := pattern(4096, 1)
	for i := int64(0); i < 400; i++ {
		data[0] = byte(i)
		if _, err := f.WriteAt(data, i*4096); err != nil {
			t.Fatal(err)
		}
	}
	if staged := fs.stage.Len(); staged > int(fs.sb.SegmentBlocks)+8 {
		t.Fatalf("staging buffer grew to %d blocks (bound ~%d)", staged, fs.sb.SegmentBlocks)
	}
	// Everything reads back correctly despite the churn.
	got := make([]byte, 4096)
	for i := int64(0); i < 400; i += 37 {
		if _, err := f.ReadAt(got, i*4096); err != nil {
			t.Fatal(err)
		}
		want := pattern(4096, 1)
		want[0] = byte(i)
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d corrupted", i)
		}
	}
	f.Close()
}

// TestPeriodicCheckpointBoundsRollForward: with CheckpointEvery small, long
// write streams checkpoint automatically.
func TestPeriodicCheckpointBoundsRollForward(t *testing.T) {
	clk := sim.NewClock()
	dev := disk.New(sim.SmallModel(), clk)
	fs, err := Format(dev, clk, Options{CheckpointEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	cp0 := fs.Stats().Checkpoints
	for i := 0; i < 30; i++ {
		writeFile(t, fs, fmt.Sprintf("/f%d", i), pattern(20000, byte(i)))
		if err := fs.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.Stats().Checkpoints; got <= cp0 {
		t.Fatalf("periodic checkpoints should have fired: %d → %d", cp0, got)
	}
	// And the chain stays recoverable.
	fs2, err := Mount(dev, clk, fs.opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, fs2, "/f29"); !bytes.Equal(got, pattern(20000, 29)) {
		t.Fatal("data lost")
	}
}

// TestIOFaultsPropagate injects device errors and verifies they surface
// through the file system API instead of being swallowed.
func TestIOFaultsPropagate(t *testing.T) {
	fs, dev, _ := newFS(t)
	writeFile(t, fs, "/f", pattern(40960, 1))
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("media error")

	// Read fault: drop the cache (remount keeps the device), then fail
	// all reads in the segment area.
	fs2 := remount(t, fs)
	dev.SetFault(func(op string, block int64) error {
		if op == "read" {
			return boom
		}
		return nil
	})
	f, err := fs2.Open("/f") // namei may read → tolerate either failure point
	if err == nil {
		buf := make([]byte, 4096)
		_, err = f.ReadAt(buf, 0)
		f.Close()
	}
	if !errors.Is(err, boom) {
		t.Fatalf("read fault not propagated: %v", err)
	}
	dev.SetFault(nil)

	// Write fault: all writes fail; a flush must report it.
	g, err := fs2.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteAt(pattern(4096, 9), 0); err != nil {
		t.Fatal(err)
	}
	dev.SetFault(func(op string, block int64) error {
		if op == "write" {
			return boom
		}
		return nil
	})
	if err := fs2.Flush(); !errors.Is(err, boom) {
		t.Fatalf("write fault not propagated: %v", err)
	}
	dev.SetFault(nil)
	// After the fault clears, the flush succeeds and data is intact.
	if err := fs2.Sync(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if _, err := g.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(4096, 9)) {
		t.Fatal("data lost across transient write fault")
	}
	g.Close()
}

// TestPartialAtSegmentBoundaryCountsDoubleIndirect drives a full flush to the
// exact point where its partial segment only fits the current segment if the
// cost estimate forgets a block. A commit force (FlushFile) defers pointer
// blocks, so it leaves a double-indirect child dirty while the double
// indirect block itself is clean; the next full flush rewrites the child,
// which moves it and so dirties the double indirect block too. The estimate
// once counted that block only when the flush also carried data in the
// double-indirect range — one block short otherwise, and with exactly that
// much room left the partial ran over the segment boundary ("partial segment
// (5 blocks at offset 124) overflows segment of 128 blocks").
func TestPartialAtSegmentBoundaryCountsDoubleIndirect(t *testing.T) {
	fs, _, _ := newFS(t)
	bs := int64(fs.BlockSize())
	block := pattern(int(bs), 1)
	create := func(path string) vfs.File {
		f, err := fs.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	write := func(f vfs.File, lbn int64) {
		if _, err := f.WriteAt(block, lbn*bs); err != nil {
			t.Fatal(err)
		}
	}
	big, filler := create("/big"), create("/filler")
	firstDouble := NDirect + nptr(fs.BlockSize()) // first block behind the double indirect block
	write(big, 0)
	write(big, firstDouble)
	// The filler has its final size from the start and stays in the direct
	// range, so its commit forces below pack no inode and dirty no pointer
	// block: each is exactly summary + n data blocks.
	for lbn := int64(0); lbn < NDirect; lbn++ {
		write(filler, lbn)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	// The commit force: data logged, the child pointer block left dirty.
	write(big, firstDouble)
	if err := big.Sync(); err != nil {
		t.Fatal(err)
	}

	// Walk the log head to 4 blocks short of the segment end with commit
	// forces of the filler file.
	room := func() int64 { return fs.sb.SegmentBlocks - fs.curOff }
	var tried []int64
	for room() != 4 {
		if tried = append(tried, fs.curOff); len(tried) > 2*int(fs.sb.SegmentBlocks) {
			t.Fatalf("log head never came to rest 4 blocks short of a segment end; offsets tried: %v", tried)
		}
		r := room() - 4 // blocks still to consume
		n := min(r-1, NDirect)
		switch {
		case r == 1:
			n = NDirect // a partial has at least 2 blocks: overshoot into the next segment
		case r-(1+n) == 1:
			n-- // do not leave exactly 1
		}
		block = pattern(int(bs), byte(len(tried))) // new bytes throughout: no summary-only force
		for lbn := int64(0); lbn < n; lbn++ {
			write(filler, lbn)
		}
		if err := filler.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	// The full flush carries one direct-range block of /big: summary + data +
	// child + double indirect + inode pack (/big and the filler's deferred
	// inode share it) = 5 blocks, and 4 are left.
	write(big, 0)
	seg := fs.curSeg
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	if fs.curSeg == seg {
		t.Fatalf("a 5-block partial went into the %d blocks left in segment %d", 4, seg)
	}
	if rep, err := fs.Fsck(); err != nil || !rep.OK() {
		t.Fatalf("fsck after the boundary flush: %v %+v", err, rep)
	}
}
