package ffs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/vfs"
)

func TestFsckCleanStateNeedsNoRepair(t *testing.T) {
	fs, _, _ := newFS(t)
	writeFile(t, fs, "/a", pattern(3*4096, 1))
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	rep, err := fs.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean file system should need no repair: %+v", rep)
	}
	if rep.Inodes < 1 || rep.UsedBlocks == 0 {
		t.Fatalf("implausible report: %+v", rep)
	}
}

// TestFsckReclaimsStaleBitmapAfterCrash models the FFS crash hazard: file
// data and the write-through inode table are durable, but the bitmap only
// reaches the disk at Sync. A crash between a file fsync and the next sync
// leaves blocks that the inode table owns marked free — and a recovery that
// allocated them (say, for a WAL replay's history append) would clobber
// committed data. Fsck must re-mark them before anything allocates.
func TestFsckReclaimsStaleBitmapAfterCrash(t *testing.T) {
	fs, dev, clk := newFS(t)
	writeFile(t, fs, "/base", pattern(2*4096, 1))
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Grow a file durably (data + inode) without syncing the bitmap.
	data := pattern(6*4096, 2)
	f, err := fs.Create("/grown")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// Directory entry for /grown must be durable too for this scenario
	// (dir blocks are data blocks of the root inode).
	rootIno := RootIno
	_, err = fs.flushLocked(&rootIno, true)
	if err == nil {
		err = fs.storeInodeLocked(fs.inodes[RootIno])
	}
	if err != nil {
		t.Fatal(err)
	}
	f.Close()

	// CRASH: remount from the device; the stale bitmap is reloaded.
	fs2, err := Mount(dev, clk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fs2.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if rep.LostBlocks == 0 {
		t.Fatalf("stale bitmap should show lost blocks: %+v", rep)
	}
	if rep.CrossLinked != 0 {
		t.Fatalf("no cross-links expected: %+v", rep)
	}
	// After repair, fresh allocations must not clobber /grown.
	writeFile(t, fs2, "/new", pattern(8*4096, 3))
	if err := fs2.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, fs2, "/grown"); !bytes.Equal(got, data) {
		t.Fatal("fsck failed to protect durable data from reallocation")
	}
	// A second fsck finds nothing to repair.
	rep2, err := fs2.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.OK() {
		t.Fatalf("second fsck should be clean: %+v", rep2)
	}
}

// TestFsckFreesLeakedBlocks covers the opposite staleness: blocks freed by a
// durable truncate remain marked used in the crashed bitmap, and fsck
// returns them to the free pool.
func TestFsckFreesLeakedBlocks(t *testing.T) {
	fs, dev, clk := newFS(t)
	writeFile(t, fs, "/shrunk", pattern(6*4096, 1))
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("/shrunk")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(4096); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil { // inode durable, bitmap not
		t.Fatal(err)
	}
	f.Close()

	fs2, err := Mount(dev, clk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fs2.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if rep.LeakedBlocks == 0 {
		t.Fatalf("truncated blocks should be reported leaked: %+v", rep)
	}
}

// TestFailedMkdirLeaksNothing: the new directory's first block is allocated
// and dirty in the cache before the duplicate name is found; the rollback
// must free the block and drop the buffer along with the inode, or every
// later Sync trips over a dirty block whose inode is gone.
func TestFailedMkdirLeaksNothing(t *testing.T) {
	fs, _, _ := newFS(t)
	if err := fs.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/a"); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("duplicate mkdir: %v", err)
	}
	writeFile(t, fs, "/f", pattern(4096, 3))
	if err := fs.Sync(); err != nil {
		t.Fatalf("sync after the failed mkdir: %v", err)
	}
	rep, err := fs.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Inodes != 3 { // root, /a, /f
		t.Fatalf("failed mkdir left something behind: %+v", rep)
	}
}
