package lfs

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/vfs"
)

func TestFsckCleanImage(t *testing.T) {
	fs, _, _ := newFS(t)
	fs.Mkdir("/a")
	fs.Mkdir("/a/b")
	writeFile(t, fs, "/a/b/f", pattern(100000, 1))
	writeFile(t, fs, "/top", pattern(500, 2))
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	rep, err := fs.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean image reported problems: %v", rep.Problems)
	}
	if rep.Files != 2 || rep.Dirs != 3 { // root + a + b
		t.Fatalf("files=%d dirs=%d", rep.Files, rep.Dirs)
	}
	if rep.Blocks == 0 {
		t.Fatal("no blocks counted")
	}
}

func TestFsckAfterChurnAndCleaning(t *testing.T) {
	fs, _, _ := tinyFS(t)
	for round := 0; round < 15; round++ {
		f, err := fs.Open("/churn")
		if errors.Is(err, vfs.ErrNotExist) {
			f, err = fs.Create("/churn")
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(pattern(128*1024, byte(round)), 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
		fs.Sync()
	}
	rep, err := fs.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("post-churn fsck problems: %v", rep.Problems)
	}
}

func TestFsckAfterCrashRecovery(t *testing.T) {
	fs, dev, clk := newFS(t)
	fs.Mkdir("/d")
	writeFile(t, fs, "/d/f", pattern(300*1024, 3))
	if err := fs.Flush(); err != nil { // no checkpoint: force roll-forward
		t.Fatal(err)
	}
	fs2, err := Mount(dev, clk, fs.opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fs2.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("post-recovery fsck problems: %v", rep.Problems)
	}
}

func TestFsckDetectsDanglingEntry(t *testing.T) {
	fs, _, _ := newFS(t)
	writeFile(t, fs, "/f", []byte("x"))
	// Corrupt in memory: remove the imap entry but keep the dir entry.
	in, _ := fs.LookupLocked("/f")
	delete(fs.imap, in.Ino)
	delete(fs.inodes, in.Ino)
	rep, err := fs.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("fsck should flag the dangling directory entry")
	}
}

func TestFsckDetectsOrphanInode(t *testing.T) {
	fs, _, _ := newFS(t)
	writeFile(t, fs, "/f", []byte("x"))
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Corrupt: drop the directory entry but keep the imap entry.
	root, _ := fs.loadInode(RootIno)
	if err := fs.WriteDirLocked(root, nil); err != nil {
		t.Fatal(err)
	}
	rep, err := fs.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.OrphanInodes) != 1 {
		t.Fatalf("orphans = %v, want exactly one", rep.OrphanInodes)
	}
}

func TestFsckAtScale(t *testing.T) {
	fs, _, _ := newFS(t)
	fs.Mkdir("/tree")
	for i := 0; i < 80; i++ {
		writeFile(t, fs, fmt.Sprintf("/tree/f%02d", i), pattern(2000+i*37, byte(i)))
	}
	fs.Sync()
	rep, err := fs.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("problems: %v", rep.Problems)
	}
	if rep.Files != 80 {
		t.Fatalf("files = %d", rep.Files)
	}
}

// TestFailedMkdirLeaksNothing: the new directory's blob is dirty in the cache
// before the duplicate name is found; the rollback must drop that buffer with
// the inode, or it waits there for whichever file is given the number next.
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
	if dirty := fs.pool.Dirty(); len(dirty) != 0 {
		t.Fatalf("failed mkdir left %d dirty buffers, first %v", len(dirty), dirty[0].ID)
	}
	writeFile(t, fs, "/f", pattern(4096, 3))
	if err := fs.Sync(); err != nil {
		t.Fatalf("sync after the failed mkdir: %v", err)
	}
	rep, err := fs.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Files != 1 || rep.Dirs != 2 {
		t.Fatalf("failed mkdir left something behind: files=%d dirs=%d %v", rep.Files, rep.Dirs, rep.Problems)
	}
}
