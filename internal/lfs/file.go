package lfs

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/vfs"
)

// File is an open file handle.
type File struct {
	fs     *FS
	in     *inode
	closed bool
}

var _ vfs.File = (*File)(nil)

// ID implements vfs.File.
func (f *File) ID() vfs.FileID { return vfs.FileID(f.in.ino) }

// Size implements vfs.File.
func (f *File) Size() (int64, error) {
	if f.closed {
		return 0, vfs.ErrFileClosed
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.in.size, nil
}

// Close implements vfs.File.
func (f *File) Close() error {
	if f.closed {
		return vfs.ErrFileClosed
	}
	f.closed = true
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.in.refs--
	return nil
}

// Sync implements vfs.File: force this file's dirty blocks to the log.
func (f *File) Sync() error {
	if f.closed {
		return vfs.ErrFileClosed
	}
	return f.fs.FlushFile(vfs.FileID(f.in.ino))
}

// ReadAt implements vfs.File.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, vfs.ErrFileClosed
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.fs.maybeFlushOrphansLocked(); err != nil {
		return 0, err
	}
	return f.fs.readAtLocked(f.in, p, off)
}

// WriteAt implements vfs.File.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, vfs.ErrFileClosed
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.fs.maybeFlushOrphansLocked(); err != nil {
		return 0, err
	}
	return f.fs.writeAtLocked(f.in, p, off)
}

// Truncate implements vfs.File.
func (f *File) Truncate(size int64) error {
	if f.closed {
		return vfs.ErrFileClosed
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.fs.truncateLocked(f.in, size)
}

// TxnProtected reports whether the file carries the transaction-protection
// attribute (§4: "transaction-protection is considered to be an attribute of
// a file").
func (f *File) TxnProtected() bool {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.in.txnProtected()
}

// GetPage pins the buffer for logical block lbn, fetching it if absent. The
// embedded transaction manager uses page handles directly to hold
// uncommitted pages in memory.
func (f *File) GetPage(lbn int64) (*buffer.Buf, error) {
	if f.closed {
		return nil, vfs.ErrFileClosed
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.fs.pool.Get(buffer.BlockID{File: vfs.FileID(f.in.ino), Block: lbn}, f.fs.fetchBlock)
}

// readAtLocked reads up to len(p) bytes at off, bounded by the file size.
func (fs *FS) readAtLocked(in *inode, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("lfs: negative offset %d", off)
	}
	if off >= in.size {
		return 0, nil
	}
	if max := in.size - off; int64(len(p)) > max {
		p = p[:max]
	}
	bs := int64(fs.blockSize)
	n := 0
	for n < len(p) {
		lbn := (off + int64(n)) / bs
		bo := (off + int64(n)) % bs
		want := len(p) - n
		if avail := int(bs - bo); want > avail {
			want = avail
		}
		b, err := fs.pool.Get(buffer.BlockID{File: vfs.FileID(in.ino), Block: lbn}, fs.fetchBlock)
		if err != nil {
			return n, err
		}
		copy(p[n:n+want], b.Data[bo:])
		fs.pool.Release(b)
		n += want
	}
	return n, nil
}

// writeAtLocked writes p at off, extending the file as needed.
func (fs *FS) writeAtLocked(in *inode, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("lfs: negative offset %d", off)
	}
	if end := off + int64(len(p)); end > maxLBN(fs.blockSize)*int64(fs.blockSize) {
		return 0, ErrFileTooLarge
	}
	bs := int64(fs.blockSize)
	n := 0
	for n < len(p) {
		lbn := (off + int64(n)) / bs
		bo := (off + int64(n)) % bs
		want := len(p) - n
		if avail := int(bs - bo); want > avail {
			want = avail
		}
		// A whole-block overwrite needn't fetch the old contents.
		var fetch buffer.Fetch
		if !(bo == 0 && want == int(bs)) {
			fetch = fs.fetchBlock
		}
		b, err := fs.pool.Get(buffer.BlockID{File: vfs.FileID(in.ino), Block: lbn}, fetch)
		if err != nil {
			return n, err
		}
		copy(b.Data[bo:], p[n:n+want])
		fs.pool.MarkDirty(b)
		fs.pool.Release(b)
		n += want
	}
	if end := off + int64(len(p)); end > in.size {
		in.size = end
		in.attrDirty = true
	}
	in.mtime = int64(fs.clock.Now())
	in.dirty = true
	return n, nil
}

// truncateLocked sets the file size, freeing blocks beyond the new end.
func (fs *FS) truncateLocked(in *inode, size int64) error {
	if size < 0 {
		return fmt.Errorf("lfs: negative truncate size %d", size)
	}
	if size >= in.size {
		in.size = size
		in.dirty, in.attrDirty = true, true
		return nil
	}
	bs := int64(fs.blockSize)
	firstDead := (size + bs - 1) / bs
	lastLBN := (in.size - 1) / bs
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
		}
		_ = fs.pool.Invalidate(buffer.BlockID{File: vfs.FileID(in.ino), Block: lbn})
		delete(fs.orphans, buffer.BlockID{File: vfs.FileID(in.ino), Block: lbn})
	}
	// Zero the tail of the last surviving block so re-extension reads zeros.
	if size%bs != 0 {
		lbn := size / bs
		id := buffer.BlockID{File: vfs.FileID(in.ino), Block: lbn}
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
	in.size = size
	in.dirty, in.attrDirty = true, true
	return nil
}

// freeFileBlocksLocked releases every block of a file (for Remove).
func (fs *FS) freeFileBlocksLocked(in *inode) error {
	return fs.forEachBlock(in, func(kind blockKind, index, addr int64) error {
		fs.accountOld(addr)
		return nil
	})
}
