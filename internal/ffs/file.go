package ffs

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/vfs"
)

// ensureMapped allocates blocks (contiguously when possible) so lbn is
// mapped. A just-allocated block enters the cache zeroed and dirty, with no
// device read: whatever a removed file left at its address is never seen, a
// partial write to it finds the zeros, and the blocks a sparse write skips
// reach the device as zeros with the file's next flush — before the inode
// that maps them (syncFileLocked).
func (fs *FS) ensureMapped(in *inode, lbn int64) error {
	for next := in.blocks(); next <= lbn; next++ {
		prefer := int64(0)
		if n := len(in.extents); n > 0 {
			last := in.extents[n-1]
			prefer = last.Start + last.Len
		}
		addr, err := fs.allocBlock(prefer)
		if err != nil {
			return err
		}
		b, err := fs.pool.Get(buffer.BlockID{File: vfs.FileID(in.Ino), Block: next}, nil)
		if err != nil {
			fs.freeBlock(addr) // never mapped without its zeros
			return err
		}
		in.appendBlock(addr)
		in.Dirty, in.AttrDirty = true, true
		fs.pool.MarkDirty(b)
		fs.pool.Release(b)
	}
	return nil
}

func (fs *FS) truncateLocked(in *inode, size int64) error {
	if size < 0 {
		return fmt.Errorf("ffs: negative truncate size %d", size)
	}
	bs := int64(fs.blockSize)
	if size < in.Size {
		keep := (size + bs - 1) / bs
		// Free whole blocks past the new end.
		for in.blocks() > keep {
			n := len(in.extents)
			last := &in.extents[n-1]
			fs.freeBlock(last.Start + last.Len - 1)
			last.Len--
			id := buffer.BlockID{File: vfs.FileID(in.Ino), Block: in.blocks()}
			_ = fs.pool.Invalidate(id)
			fs.stage.Unpark(id)
			if last.Len == 0 {
				in.extents = in.extents[:n-1]
			}
		}
		// Zero the tail of the final block.
		if size%bs != 0 {
			id := buffer.BlockID{File: vfs.FileID(in.Ino), Block: size / bs}
			b, err := fs.pool.Get(id, fs.fetchBlock)
			if err != nil {
				return err
			}
			for i := size % bs; i < bs; i++ {
				b.Data[i] = 0
			}
			fs.pool.MarkDirty(b)
			fs.pool.Release(b)
		}
	}
	in.Size = size
	in.Dirty, in.AttrDirty = true, true
	return nil
}

// freeFileLocked releases all of a file's blocks and overflow chain.
func (fs *FS) freeFileLocked(in *inode) {
	for _, e := range in.extents {
		for b := e.Start; b < e.Start+e.Len; b++ {
			fs.freeBlock(b)
		}
	}
	for _, b := range in.overflow {
		fs.freeBlock(b)
	}
	in.extents = nil
	in.overflow = nil
}
