package lfs

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// A full-stage flush logs the parked blocks and the dirty cached blocks the
// previous full-stage flush did not find dirty. A block dirty at both is left
// dirty, so a hot block is not logged again at every flush: its eviction parks
// it for a later flush, or the checkpoint logs it.

// hotRig is a small file system with a hot file, /hot, whose block 0 a
// client keeps rewriting, and a cold one, /g, whose fresh blocks fill the
// stage through the 8-block cache.
type hotRig struct {
	t    *testing.T
	fs   *FS
	hot  vfs.File
	g    vfs.File
	next int64 // the next block of /g to write
	last byte  // the byte hot block 0 starts with
}

func newHotRig(t *testing.T) *hotRig {
	t.Helper()
	clk := sim.NewClock()
	fs, err := Format(disk.New(sim.SmallModel(), clk), clk, Options{CacheBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	r := &hotRig{t: t, fs: fs}
	if r.hot, err = fs.Create("/hot"); err != nil {
		t.Fatal(err)
	}
	if r.g, err = fs.Create("/g"); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *hotRig) id() buffer.BlockID { return buffer.BlockID{File: r.hot.ID(), Block: 0} }

// logAddr is block lbn of open file f's log address: 0 until a flush logs it.
func logAddr(fs *FS, f vfs.File, lbn int64) (int64, error) {
	return fs.blockAddr(fs.inodes[Ino(f.ID())], lbn)
}

func (r *hotRig) addr() int64 {
	r.t.Helper()
	a, err := logAddr(r.fs, r.hot, 0)
	if err != nil {
		r.t.Fatal(err)
	}
	return a
}

// touch rewrites hot block 0 whole with a new first byte.
func (r *hotRig) touch() {
	r.t.Helper()
	r.last++
	if _, err := r.hot.WriteAt(pattern(r.fs.BlockSize(), r.last), 0); err != nil {
		r.t.Fatal(err)
	}
}

// stageFlush writes fresh blocks of /g until a full stage is flushed. With
// keepHot it rewrites hot block 0 before each, so the cache keeps it dirty;
// the flush runs in the tick of the write that finds the stage full.
func (r *hotRig) stageFlush(keepHot bool) {
	r.t.Helper()
	flushes := r.fs.Stats().StagedFlushes
	for r.fs.Stats().StagedFlushes == flushes {
		if keepHot {
			r.touch()
		}
		if _, err := r.g.WriteAt(pattern(r.fs.BlockSize(), byte(r.next)), r.next*int64(r.fs.BlockSize())); err != nil {
			r.t.Fatal(err)
		}
		r.next++
	}
}

// evict reads /g's written blocks until hot block 0 has left the cache.
func (r *hotRig) evict() {
	r.t.Helper()
	p := make([]byte, r.fs.BlockSize())
	for lbn := int64(0); r.fs.pool.Lookup(r.id()) != nil; lbn++ {
		if _, err := r.g.ReadAt(p, lbn*int64(r.fs.BlockSize())); err != nil {
			r.t.Fatal(err)
		}
	}
}

// remountReads remounts the file system and checks hot block 0's bytes.
func (r *hotRig) remountReads() {
	r.t.Helper()
	if err := r.hot.Close(); err != nil {
		r.t.Fatal(err)
	}
	if err := r.g.Close(); err != nil {
		r.t.Fatal(err)
	}
	fs := remount(r.t, r.fs)
	if got, want := readFile(r.t, fs, "/hot"), pattern(fs.BlockSize(), r.last); !bytes.Equal(got, want) {
		r.t.Fatalf("after remount hot block 0 starts % x, want % x", got[:4], want[:4])
	}
}

// TestStageFlushLeavesBlockDirtyAtTheLastOne: the first full-stage flush
// logs hot block 0, dirty for the first time; the second finds it dirty again
// and leaves it, counted. Evicted, it is parked and the next full-stage flush
// logs it; kept cached, the checkpoint logs it.
func TestStageFlushLeavesBlockDirtyAtTheLastOne(t *testing.T) {
	for _, evict := range []bool{true, false} {
		t.Run(map[bool]string{true: "evicted", false: "checkpointed"}[evict], func(t *testing.T) {
			r := newHotRig(t)
			r.stageFlush(true)
			first := r.addr()
			if first == 0 {
				t.Fatal("the first full-stage flush did not log hot block 0, dirty for the first time")
			}
			left := r.fs.Stats().HotBlocksLeft
			r.stageFlush(true)
			if a := r.addr(); a != first {
				t.Fatalf("the second full-stage flush logged hot block 0 again (address %d → %d); it was dirty at the first", first, a)
			}
			if b := r.fs.pool.Lookup(r.id()); b == nil || !b.Dirty() {
				t.Fatal("hot block 0 must still be cached dirty")
			}
			if got := r.fs.Stats().HotBlocksLeft - left; got != 1 {
				t.Fatalf("the second flush counted %d blocks left dirty, want 1", got)
			}
			if evict {
				r.evict()
				if _, parked := r.fs.stage.Lookup(r.id()); !parked {
					t.Fatal("hot block 0 was evicted dirty but not parked")
				}
				r.stageFlush(false)
				if _, parked := r.fs.stage.Lookup(r.id()); parked || r.addr() == first {
					t.Fatal("the full-stage flush after the eviction did not log the parked hot block")
				}
			} else {
				if err := r.fs.Sync(); err != nil {
					t.Fatal(err)
				}
				if r.addr() == first || r.fs.pool.Lookup(r.id()).Dirty() {
					t.Fatal("the checkpoint did not log the hot block a full-stage flush left dirty")
				}
			}
			r.remountReads()
		})
	}
}

// TestStageFlushWritesHotBufferOverParkedCopy: a hot block evicted, read back
// from the stage and rewritten has a dirty buffer shadowing its parked copy.
// The full-stage flush logs the buffer and drops the copy, though the block
// was dirty at the flush before, so that the stage drains.
func TestStageFlushWritesHotBufferOverParkedCopy(t *testing.T) {
	r := newHotRig(t)
	r.stageFlush(true)
	first := r.addr()
	r.touch()
	r.evict()
	r.touch() // read back from the stage, then rewritten
	if _, parked := r.fs.stage.Lookup(r.id()); !parked {
		t.Fatal("hot block 0's parked copy must outlive its fetch")
	}
	r.stageFlush(true)
	if _, parked := r.fs.stage.Lookup(r.id()); parked || r.addr() == first {
		t.Fatalf("the flush left the parked copy (%v) or did not log the buffer over it", parked)
	}
	if err := r.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	r.remountReads()
}

// hotBlocksScript commits hot block 1 of /f — by FlushCommit of the held page
// on a transaction-protected file (kernel), else by File.Sync — between
// full-stage flushes that /g's fresh blocks force while /f's blocks stay in
// the cache, so that the flushes after the second leave block 1 dirty with its
// newest durable bytes in summary patches, and every one after the first
// leaves /g's block 0, rewritten and never forced. A checkpoint ends the
// script.
func hotBlocksScript(kernel bool) func(*FS, func(int, fileImage)) error {
	return func(fs *FS, after func(int, fileImage)) error {
		s, err := newStagedScript(fs, kernel, after)
		if err != nil {
			return err
		}
		bs := fs.BlockSize()
		gBlock := int64(2 * stagedCache)
		cps := int64(-1) // checkpoints when the last round's flush ended
		for round := 0; round < 4; round++ {
			flushes, left := fs.Stats().StagedFlushes, fs.Stats().HotBlocksLeft
			before, err := logAddr(fs, s.f, 1)
			if err != nil {
				return err
			}
			for fs.Stats().StagedFlushes == flushes {
				if _, err := s.f.ReadAt(make([]byte, 1), int64(bs)); err != nil { // keeps block 1 cached
					return err
				}
				if _, err := s.g.WriteAt([]byte{byte(gBlock)}, 0); err != nil { // hot, never forced
					return err
				}
				if _, err := s.g.WriteAt(stamped(bs, gBlock, 2), gBlock*int64(bs)); err != nil {
					return err
				}
				gBlock++
			}
			if round > 0 && fs.Stats().HotBlocksLeft == left {
				return fmt.Errorf("round %d: the full-stage flush left no hot block", round)
			}
			// Block 1 has been dirty since the commit before the last flush,
			// unless a checkpoint logged it since.
			after, err := logAddr(fs, s.f, 1)
			if err != nil {
				return err
			}
			if round > 1 && fs.Stats().Checkpoints == cps && (after != before || !fs.Patched(s.id())) {
				return fmt.Errorf("round %d: the full-stage flush logged block 1, dirty at the one before", round)
			}
			cps = fs.Stats().Checkpoints
			if err := s.edit(10*round, fmt.Sprintf("round %d", round)); err != nil {
				return err
			}
			if ok, err := s.commit(); err != nil {
				return err
			} else if !ok {
				return fmt.Errorf("round %d: the commit of the hot block was not summary-only", round)
			}
		}
		if err := fs.Sync(); err != nil {
			return err
		}
		return s.finish()
	}
}

// TestStageFlushLeavingHotBlocksCrashAtEveryWrite crashes hotBlocksScript at
// every write op, clean and torn: every committed byte of a block left dirty
// by full-stage flushes is recovered from its patches, and after a checkpoint
// from the block it logged — the script's, or, every 5 partials, one a
// full-stage flush ends with.
func TestStageFlushLeavingHotBlocksCrashAtEveryWrite(t *testing.T) {
	for _, kernel := range []bool{false, true} {
		for _, every := range []int{0, 5} {
			name := fmt.Sprintf("%s/checkpoint-every-%d", map[bool]string{false: "File.Sync", true: "FlushCommit"}[kernel], every)
			t.Run(name, func(t *testing.T) {
				fs := crashAtEveryWrite(t, Options{CacheBlocks: stagedCache, CheckpointEvery: every}, hotBlocksScript(kernel))
				if fs.Stats().HotBlocksLeft == 0 {
					t.Fatal("no full-stage flush left a hot block: the test exercises nothing")
				}
			})
		}
	}
}

// TestUnprotectedWriteIsNotPatched: a write to a file neither forced nor
// transaction-protected is not measured, so it leaves its buffer's record of
// changed bytes unknown — also when the buffer is dirty with bytes measured
// while the file was protected. Hot block 0 is measured, protection is
// switched off, and the block is written again; a full-stage flush then logs
// the inode and leaves the block dirty, so File.Sync needs no inode pack and
// may force the block by patches only if its record is known. After a crash
// every synced byte reads back.
func TestUnprotectedWriteIsNotPatched(t *testing.T) {
	r := newHotRig(t)
	if err := r.fs.SetTxnProtected("/hot", true); err != nil {
		t.Fatal(err)
	}
	bs := r.fs.BlockSize()
	want := pattern(bs, 1)
	write := func(p []byte, off int) {
		t.Helper()
		copy(want[off:], p)
		if _, err := r.hot.WriteAt(p, int64(off)); err != nil {
			t.Fatal(err)
		}
	}
	// stageFlush writes /g until a full stage is flushed, reading hot block 0
	// before each write so that the cache keeps it.
	stageFlush := func() {
		t.Helper()
		p := make([]byte, 1)
		for flushes := r.fs.Stats().StagedFlushes; r.fs.Stats().StagedFlushes == flushes; r.next++ {
			if _, err := r.hot.ReadAt(p, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := r.g.WriteAt(pattern(bs, byte(r.next)), r.next*int64(bs)); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(want, 0)
	stageFlush() // logs hot block 0, dirty for the first time
	write([]byte("measured"), 100)
	if err := r.fs.SetTxnProtected("/hot", false); err != nil {
		t.Fatal(err)
	}
	write([]byte("unmeasured"), 2000)
	left := r.fs.Stats().HotBlocksLeft
	stageFlush()
	if r.fs.Stats().HotBlocksLeft == left || !r.fs.pool.Lookup(r.id()).Dirty() {
		t.Fatal("the second full-stage flush did not leave hot block 0 dirty")
	}
	if r.fs.inodes[Ino(r.hot.ID())].AttrDirty {
		t.Fatal("the second full-stage flush did not log /hot's inode")
	}
	if err := r.hot.Sync(); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(r.fs.dev, r.fs.clock, r.fs.opts) // crash: no unmount
	if err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, fs2, "/hot"); !bytes.Equal(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("after the crash /hot's byte %d is %#x, want %#x", i, got[i], want[i])
			}
		}
	}
}
