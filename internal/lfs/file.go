package lfs

import (
	"fmt"

	"repro/internal/ufs"
)

// File is an open file handle; core asserts it to reach TxnProtected.
type File = ufs.File[*inode]

// truncateLocked sets the file size, freeing blocks beyond the new end.
// Growing leaves the new range a hole: LFS allocates a block only when it
// logs one, so there is nothing to reserve. A shrink that frees or zeroes a
// block whose newest bytes are in summary patches only checkpoints: nothing
// else could stop roll-forward from laying those patches over the block, or
// over the hole a regrow leaves in its place.
func (fs *FS) truncateLocked(in *inode, size int64) error {
	if size < 0 {
		return fmt.Errorf("lfs: negative truncate size %d", size)
	}
	if size >= in.Size {
		in.Size = size
		in.Dirty, in.AttrDirty = true, true
		return nil
	}
	bs := int64(fs.blockSize)
	firstDead := (size + bs - 1) / bs
	lastLBN := (in.Size - 1) / bs
	patched := false
	for lbn := firstDead; lbn <= lastLBN; lbn++ {
		addr, err := fs.blockAddr(in, lbn)
		if err != nil {
			return err
		}
		if addr != 0 {
			if _, err := fs.setBlockAddr(in, lbn, 0); err != nil {
				return err
			}
			fs.accountOld(addr)
			if lbn >= NDirect {
				in.ptrsCleared = true
			}
		}
		id := blockIDOf(in.Ino, lbn)
		_ = fs.pool.Invalidate(id)
		fs.stage.Unpark(id)
		delete(fs.deltas, id)
		patched = patched || fs.Patched(id)
		delete(fs.patched, id)
	}
	// Zero the tail of the last surviving block so re-extension reads zeros.
	if size%bs != 0 {
		id := blockIDOf(in.Ino, size/bs)
		b, err := fs.pool.Get(id, fs.fetchBlock)
		if err != nil {
			return err
		}
		for i := size % bs; i < bs; i++ {
			b.Data[i] = 0
		}
		fs.pool.MarkDirty(b)
		fs.pool.Release(b)
		delete(fs.deltas, id)
		patched = patched || fs.Patched(id)
	}
	in.Size = size
	in.Dirty, in.AttrDirty = true, true
	if patched {
		return fs.writeCheckpointLocked()
	}
	return nil
}

// freeFileBlocksLocked releases every block of a file (for Remove).
func (fs *FS) freeFileBlocksLocked(in *inode) error {
	return fs.forEachBlock(in, func(kind blockKind, index, addr int64) error {
		fs.accountOld(addr)
		return nil
	})
}
