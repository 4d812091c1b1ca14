package lfs

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/buffer"
	"repro/internal/vfs"
)

// A block the cache evicts with an empty record of changed bytes is parked as its durable
// image (writeback): a write to it once it is read back is measured against
// the staged copy, and a File.Sync of its file needs nothing of it. These
// tests crash each rule's script at every write op.

// stagedCache is the cache of the scripts' file system: reading /g's blocks
// pushes /f's out.
const stagedCache = 16

// stagedScript writes /f and /g, checkpoints, and returns the script's
// tools: evict reads /g until block 1 of /f has left the cache, edit writes
// s at byte off of that block and records it in the image, and commit forces
// it — by FlushCommit of the block, held, on a transaction-protected file
// (kernel), else by File.Sync — reporting whether the force was one summary
// block. Each acknowledged force calls after with the image now durable.
type stagedScript struct {
	fs     *FS
	kernel bool
	after  func(int, fileImage)
	step   int
	im     fileImage
	f, g   vfs.File
}

func newStagedScript(fs *FS, kernel bool, after func(int, fileImage)) (*stagedScript, error) {
	s := &stagedScript{fs: fs, kernel: kernel, after: after, im: fileImage{version: versions(4, 1), blocks: 4}}
	bs := fs.BlockSize()
	var err error
	if s.f, err = fs.Create("/f"); err != nil {
		return nil, err
	}
	if s.g, err = fs.Create("/g"); err != nil {
		return nil, err
	}
	for lbn := int64(0); lbn < 4; lbn++ {
		if _, err := s.f.WriteAt(stamped(bs, lbn, 1), lbn*int64(bs)); err != nil {
			return nil, err
		}
	}
	for lbn := int64(0); lbn < 2*stagedCache; lbn++ {
		if _, err := s.g.WriteAt(stamped(bs, lbn, 1), lbn*int64(bs)); err != nil {
			return nil, err
		}
	}
	if kernel {
		if err := fs.SetTxnProtected("/f", true); err != nil {
			return nil, err
		}
	}
	if err := fs.Sync(); err != nil {
		return nil, err
	}
	if !kernel {
		if err := s.f.Sync(); err != nil { // nothing to force; from now on writes are measured
			return nil, err
		}
	}
	s.ack()
	return s, nil
}

func (s *stagedScript) id() buffer.BlockID { return blockIDOf(Ino(s.f.ID()), 1) }

func (s *stagedScript) ack() {
	s.after(s.step, s.im.clone())
	s.step++
}

func (s *stagedScript) evict() error {
	bs := s.fs.BlockSize()
	p := make([]byte, bs)
	for lbn := int64(0); lbn < 2*stagedCache; lbn++ {
		if _, err := s.g.ReadAt(p, lbn*int64(bs)); err != nil {
			return err
		}
	}
	if s.fs.pool.Lookup(s.id()) != nil {
		return fmt.Errorf("block 1 of /f is still cached")
	}
	if _, parked := s.fs.stage.Lookup(s.id()); !parked {
		return fmt.Errorf("block 1 of /f was evicted but not parked")
	}
	return nil
}

// readBack reads block 1 of /f, from the stage, and checks its bytes.
func (s *stagedScript) readBack() error {
	bs := s.fs.BlockSize()
	hits := s.fs.Stats().Stage.ParkedHits
	got := make([]byte, bs)
	if _, err := s.f.ReadAt(got, int64(bs)); err != nil {
		return err
	}
	if s.fs.Stats().Stage.ParkedHits != hits+1 {
		return fmt.Errorf("block 1 was not read back from the stage")
	}
	if !bytes.Equal(got, s.im.edited[1]) {
		return fmt.Errorf("block 1 read back from the stage holds %q", got[:24])
	}
	return nil
}

func (s *stagedScript) edit(off int, text string) error {
	if _, err := s.f.WriteAt([]byte(text), int64(s.fs.BlockSize()+off)); err != nil {
		return err
	}
	s.im = s.im.edit(s.fs.BlockSize(), 1, off, []byte(text))
	return nil
}

func (s *stagedScript) commit() (summaryOnly bool, err error) {
	before := s.fs.Stats()
	if s.kernel {
		b := s.fs.pool.Lookup(s.id())
		s.fs.pool.SetHold(b, true)
		err = s.fs.FlushCommit([]CommitPage{{ID: s.id()}})
		s.fs.pool.SetHold(b, false)
	} else {
		err = s.f.Sync()
	}
	if err != nil {
		return false, err
	}
	s.ack()
	st := s.fs.Stats()
	return st.SummaryOnlyForces == before.SummaryOnlyForces+1 && st.BlocksLogged == before.BlocksLogged+1, nil
}

// finish writes one more block so that a crash can fall after the script's
// last force and flush.
func (s *stagedScript) finish() error {
	if _, err := s.g.WriteAt(stamped(s.fs.BlockSize(), 0, 2), 0); err != nil {
		return err
	}
	return s.fs.Flush()
}

// durableStagedScript commits a few bytes of a block, evicts it — parked
// durable — reads it back and commits more bytes: a summary-only force. It
// evicts the block again and overwrites it whole, unfetched, with one more
// edit: summary-only too, measured against the staged copy. On the kernel a
// running transaction then writes the page, held, and the stage is flushed:
// the staged copy it logs must be the image of the last commit.
func durableStagedScript(kernel bool) func(*FS, func(int, fileImage)) error {
	return func(fs *FS, after func(int, fileImage)) error {
		s, err := newStagedScript(fs, kernel, after)
		if err != nil {
			return err
		}
		if err := s.edit(100, "first commit"); err != nil {
			return err
		}
		if ok, err := s.commit(); err != nil {
			return err
		} else if !ok {
			return fmt.Errorf("the first commit was not summary-only")
		}
		if err := s.evict(); err != nil {
			return err
		}
		if !fs.stage.Durable(s.id()) {
			return fmt.Errorf("a patched block evicted with an empty record was not parked durable")
		}
		if err := s.readBack(); err != nil {
			return err
		}
		if err := s.edit(200, "second commit"); err != nil {
			return err
		}
		if ok, err := s.commit(); err != nil {
			return err
		} else if !ok {
			return fmt.Errorf("the commit of a block read back from its durable staged copy was not summary-only")
		}
		if err := s.evict(); err != nil {
			return err
		}
		whole := bytes.Clone(s.im.edited[1])
		copy(whole[300:], "whole block")
		if _, err := s.f.WriteAt(whole, int64(fs.BlockSize())); err != nil {
			return err
		}
		s.im = s.im.edit(fs.BlockSize(), 1, 300, []byte("whole block"))
		if ok, err := s.commit(); err != nil {
			return err
		} else if !ok {
			return fmt.Errorf("the commit of an unfetched whole-block overwrite of a durable staged block was not summary-only")
		}
		if kernel {
			if _, err := s.f.WriteAt([]byte("running"), int64(fs.BlockSize()+400)); err != nil {
				return err
			}
			b := fs.pool.Lookup(s.id())
			fs.pool.SetHold(b, true)
			if err := fs.Flush(); err != nil {
				return err
			}
			if _, parked := fs.stage.Lookup(s.id()); parked || fs.Patched(s.id()) {
				return fmt.Errorf("the flush left block 1 parked or patched")
			}
			fs.pool.SetHold(b, false)
			if err := fs.pool.Invalidate(s.id()); err != nil { // the running transaction aborts
				return err
			}
		}
		return s.finish()
	}
}

// undurableStagedScript writes bytes to a block of a forced file and lets
// the cache evict it before any force: parked, not durable. Read back,
// written again and forced, the block must be logged whole — a summary could
// carry only the second write.
func undurableStagedScript(fs *FS, after func(int, fileImage)) error {
	s, err := newStagedScript(fs, false, after)
	if err != nil {
		return err
	}
	if err := s.edit(100, "never forced"); err != nil {
		return err
	}
	if err := s.evict(); err != nil {
		return err
	}
	if fs.stage.Durable(s.id()) {
		return fmt.Errorf("a block evicted with unforced bytes was parked durable")
	}
	if err := s.readBack(); err != nil {
		return err
	}
	if err := s.edit(200, "forced"); err != nil {
		return err
	}
	causes := fs.Stats().FullForceCauses
	if ok, err := s.commit(); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("the force of a block read back from an undurable staged copy was summary-only")
	}
	if fs.Stats().FullForceCauses.StagedUndurable != causes.StagedUndurable+1 {
		return fmt.Errorf("the full force was not counted as refused by an undurable staged block: %+v", fs.Stats().FullForceCauses)
	}
	return s.finish()
}

// TestDurableStagedBlockForcesSummaryOnly: a patched block read back from its
// durable staged copy commits by summary-only forces, by File.Sync and by
// FlushCommit, and a crash at any write op recovers the committed image.
func TestDurableStagedBlockForcesSummaryOnly(t *testing.T) {
	for _, kernel := range []bool{false, true} {
		t.Run(map[bool]string{false: "File.Sync", true: "FlushCommit"}[kernel], func(t *testing.T) {
			crashAtEveryWrite(t, Options{CacheBlocks: stagedCache}, durableStagedScript(kernel))
		})
	}
}

// TestUndurableStagedBlockForcesWhole: a block evicted with bytes no force
// made durable, read back, written and forced, is logged whole, and a crash
// at any write op after the force recovers both writes.
func TestUndurableStagedBlockForcesWhole(t *testing.T) {
	crashAtEveryWrite(t, Options{CacheBlocks: stagedCache}, undurableStagedScript)
}
