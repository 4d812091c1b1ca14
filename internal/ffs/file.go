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
		b, err := fs.pool.GetForWrite(buffer.BlockID{File: vfs.FileID(in.Ino), Block: next}, nil)
		if err != nil {
			fs.freeBlock(addr) // never mapped without its zeros
			return err
		}
		in.appendBlock(addr)
		in.Dirty, in.AttrDirty = true, true
		b.MarkUnknown() // the address holds what a freed file left
		fs.pool.MarkDirty(b)
		fs.pool.Release(b)
	}
	return nil
}

// reserveZeroed maps blocks up to lastLBN for a growing Truncate, the way a
// preallocating file system reserves them. It allocates them contiguously
// where it can and writes their zeros straight to the device, one write per
// contiguous run, before the inode maps them: the order ensureMapped keeps
// through the cache, without a buffer per block. The inode remembers them as
// zero on disk, so the first write of each moves only what it changes.
func (fs *FS) reserveZeroed(in *inode, lastLBN int64) error {
	n := lastLBN + 1 - in.blocks()
	if n <= 0 {
		return nil
	}
	prefer := int64(0)
	if k := len(in.extents); k > 0 {
		prefer = in.extents[k-1].Start + in.extents[k-1].Len
	}
	addrs := make([]int64, 0, n)
	undo := func() {
		for _, a := range addrs {
			fs.freeBlock(a)
		}
	}
	for len(addrs) < int(n) {
		addr, err := fs.allocBlock(prefer)
		if err != nil {
			undo()
			return err
		}
		addrs = append(addrs, addr)
		prefer = addr + 1
	}
	zero := make([]byte, fs.blockSize)
	run := make([][]byte, 0, n)
	for i := 0; i < len(addrs); {
		j := i + 1
		for j < len(addrs) && addrs[j] == addrs[j-1]+1 {
			j++
		}
		run = run[:0]
		for range j - i {
			run = append(run, zero)
		}
		if err := fs.dev.WriteRun(addrs[i], run); err != nil {
			undo()
			return err
		}
		i = j
	}
	old := in.blocks()
	for _, a := range addrs {
		in.appendBlock(a)
	}
	if in.zeroHi != old {
		in.zeroLo = old
	}
	in.zeroHi = in.blocks()
	return nil
}

// truncateLocked sets the file size. Shrinking frees the blocks past the new
// end and zeroes the tail of the last one; growing maps the new range as
// zeroed blocks (reserveZeroed), so that writes into it change neither the
// size nor the block map and a File.Sync after them stores no inode.
func (fs *FS) truncateLocked(in *inode, size int64) error {
	if size < 0 {
		return fmt.Errorf("ffs: negative truncate size %d", size)
	}
	bs := int64(fs.blockSize)
	if size > in.Size {
		if err := fs.reserveZeroed(in, (size+bs-1)/bs-1); err != nil {
			return err
		}
	}
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
		in.zeroHi = min(in.zeroHi, size/bs)
		in.zeroLo = min(in.zeroLo, in.zeroHi)
		// Zero the tail of the final block.
		if size%bs != 0 {
			id := buffer.BlockID{File: vfs.FileID(in.Ino), Block: size / bs}
			b, err := fs.pool.GetForWrite(id, fs.fetchBlock)
			if err != nil {
				return err
			}
			for i := size % bs; i < bs; i++ {
				b.Data[i] = 0
			}
			b.MarkUnknown()
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
