package ufs

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/vfs"
)

// File is an open file handle.
type File[N Node] struct {
	fs     *FS[N]
	in     N
	closed bool
}

// open returns a new handle on in.
func (fs *FS[N]) open(in N) *File[N] {
	in.Hdr().Refs++
	return &File[N]{fs: fs, in: in}
}

// ID implements vfs.File.
func (f *File[N]) ID() vfs.FileID { return vfs.FileID(f.in.Hdr().Ino) }

// Size implements vfs.File.
func (f *File[N]) Size() (int64, error) {
	if f.closed {
		return 0, vfs.ErrFileClosed
	}
	return f.in.Hdr().Size, nil
}

// Close implements vfs.File.
func (f *File[N]) Close() error {
	if f.closed {
		return vfs.ErrFileClosed
	}
	f.closed = true
	f.in.Hdr().Refs--
	return nil
}

// Sync implements vfs.File: the file's dirty blocks reach the medium, and its
// inode with them when a crash could not otherwise rebuild it (AttrDirty).
func (f *File[N]) Sync() error {
	if f.closed {
		return vfs.ErrFileClosed
	}
	if h := f.in.Hdr(); f.fs.ops.InodeAtSync && h.Dirty {
		h.AttrDirty = true
	}
	return f.fs.ops.Sync(f.in)
}

// ReadAt implements vfs.File. With WriteAt it is the path every page access
// of all three transaction systems takes: nothing in it may allocate.
//
//simlint:noalloc
func (f *File[N]) ReadAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, vfs.ErrFileClosed
	}
	if err := f.fs.ops.Tick(); err != nil {
		return 0, err
	}
	return f.fs.readAt(f.in.Hdr(), p, off)
}

// WriteAt implements vfs.File.
//
//simlint:noalloc
func (f *File[N]) WriteAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, vfs.ErrFileClosed
	}
	if err := f.fs.ops.Tick(); err != nil {
		return 0, err
	}
	return f.fs.writeAt(f.in, p, off)
}

// Truncate implements vfs.File.
func (f *File[N]) Truncate(size int64) error {
	if f.closed {
		return vfs.ErrFileClosed
	}
	return f.fs.ops.Truncate(f.in, size)
}

// TxnProtected reports whether the file carries the transaction-protection
// attribute.
func (f *File[N]) TxnProtected() bool {
	return f.in.Hdr().TxnProtected()
}

// readAt reads up to len(p) bytes at off, bounded by the file size.
func (fs *FS[N]) readAt(h *Inode, p []byte, off int64) (int, error) {
	if off < 0 {
		//simlint:alloc(the caller's error, not a page access)
		return 0, fmt.Errorf("ufs: negative offset %d", off)
	}
	if off >= h.Size {
		return 0, nil
	}
	if max := h.Size - off; int64(len(p)) > max {
		p = p[:max]
	}
	n := 0
	for n < len(p) {
		lbn := (off + int64(n)) / fs.bs
		bo := (off + int64(n)) % fs.bs
		want := len(p) - n
		if avail := int(fs.bs - bo); want > avail {
			want = avail
		}
		b, err := fs.ops.Pool.Get(buffer.BlockID{File: vfs.FileID(h.Ino), Block: lbn}, fs.ops.Fetch)
		if err != nil {
			return n, err
		}
		copy(p[n:n+want], b.Data[bo:])
		fs.ops.Pool.Release(b)
		n += want
	}
	return n, nil
}

// writeAt writes p at off, extending the file as needed.
func (fs *FS[N]) writeAt(in N, p []byte, off int64) (int, error) {
	if off < 0 {
		//simlint:alloc(the caller's error, not a page access)
		return 0, fmt.Errorf("ufs: negative offset %d", off)
	}
	if err := fs.ops.Reserve(in, (off+int64(len(p))-1)/fs.bs); err != nil {
		return 0, err
	}
	h := in.Hdr()
	n := 0
	for n < len(p) {
		lbn := (off + int64(n)) / fs.bs
		bo := (off + int64(n)) % fs.bs
		want := len(p) - n
		if avail := int(fs.bs - bo); want > avail {
			want = avail
		}
		// A whole-block overwrite needn't fetch the old contents.
		id := buffer.BlockID{File: vfs.FileID(h.Ino), Block: lbn}
		fetch := fs.ops.Fetch
		if bo == 0 && want == int(fs.bs) {
			fetch = nil
		}
		fresh := fetch == nil && fs.ops.Pool.Lookup(id) == nil
		b, err := fs.ops.Pool.GetForWrite(id, fetch)
		if err != nil {
			return n, err
		}
		b.Note(fs.ops.Durable(in, b, fresh), int(bo), p[n:n+want], fs.ops.Room)
		copy(b.Data[bo:], p[n:n+want])
		fs.ops.Pool.MarkDirty(b)
		fs.ops.Pool.Release(b)
		n += want
	}
	if end := off + int64(len(p)); end > h.Size {
		h.Size = end
		h.AttrDirty = true
	}
	h.Mtime = int64(fs.ops.Clock.Now())
	h.Dirty = true
	return n, nil
}
