// Package pagestore defines the paged-file abstraction the access methods
// (btree, recno) are written against. The same B-tree code thereby
// runs in both of the paper's configurations:
//
//   - user-level: LIBTP's buffer manager implements Store, acquiring
//     two-phase page locks and writing WAL records on every page update
//     (Figure 2);
//   - embedded: a plain file on the file system implements Store, and the
//     file system's transaction manager intercepts the page accesses
//     (Figure 3).
package pagestore

import (
	"errors"
	"fmt"

	"repro/internal/frame"
	"repro/internal/vfs"
)

// ErrOutOfRange reports access to a page that was never allocated.
var ErrOutOfRange = errors.New("pagestore: page out of range")

// Store is a flat array of fixed-size pages.
type Store interface {
	// PageSize returns the page size in bytes.
	PageSize() int
	// NumPages returns the number of allocated pages.
	NumPages() (int64, error)
	// ReadPage fills p (one page long) with page n: all of it, since callers
	// pass recycled buffers whose old contents mean nothing.
	ReadPage(n int64, p []byte) error
	// WritePage stores p as page n. n must be < NumPages().
	WritePage(n int64, p []byte) error
	// AllocPage appends a zeroed page and returns its number.
	AllocPage() (int64, error)
}

// UpdateReader is optionally implemented by a locking Store.
// ReadPageForUpdate reads page n as ReadPage does and declares that the
// caller is about to write it, so the store can take the page's write lock at
// first touch. A read lock upgraded later is where two read-then-write
// transactions on one hot page deadlock: each holds the shared lock the
// other's upgrade waits for.
type UpdateReader interface {
	ReadPageForUpdate(n int64, p []byte) error
}

// ReadForUpdate reads page n of st for a caller about to write it: through
// UpdateReader where st implements it, as a plain ReadPage otherwise.
func ReadForUpdate(st Store, n int64, p []byte) error {
	if u, ok := st.(UpdateReader); ok {
		return u.ReadPageForUpdate(n, p)
	}
	return st.ReadPage(n, p)
}

// FileStore adapts a vfs.File into a Store. Page n occupies bytes
// [n·size, (n+1)·size).
type FileStore struct {
	F    vfs.File
	Size int
}

// NewFileStore wraps f with the given page size.
func NewFileStore(f vfs.File, pageSize int) *FileStore {
	return &FileStore{F: f, Size: pageSize}
}

// PageSize implements Store.
func (s *FileStore) PageSize() int { return s.Size }

// NumPages implements Store.
func (s *FileStore) NumPages() (int64, error) {
	sz, err := s.F.Size()
	if err != nil {
		return 0, err
	}
	return (sz + int64(s.Size) - 1) / int64(s.Size), nil
}

// ReadPage implements Store.
func (s *FileStore) ReadPage(n int64, p []byte) error {
	if len(p) != s.Size {
		return fmt.Errorf("pagestore: bad buffer size %d", len(p))
	}
	np, err := s.NumPages()
	if err != nil {
		return err
	}
	if n < 0 || n >= np {
		return fmt.Errorf("%w: page %d of %d", ErrOutOfRange, n, np)
	}
	got, err := s.F.ReadAt(p, n*int64(s.Size))
	clear(p[got:]) // a file that ends inside its last page reads as zero-padded
	return err
}

// WritePage implements Store.
func (s *FileStore) WritePage(n int64, p []byte) error {
	if len(p) != s.Size {
		return fmt.Errorf("pagestore: bad buffer size %d", len(p))
	}
	np, err := s.NumPages()
	if err != nil {
		return err
	}
	if n < 0 || n >= np {
		return fmt.Errorf("%w: page %d of %d", ErrOutOfRange, n, np)
	}
	_, err = s.F.WriteAt(p, n*int64(s.Size))
	return err
}

// AllocPage implements Store.
//
//simlint:noalloc
func (s *FileStore) AllocPage() (int64, error) {
	np, err := s.NumPages()
	if err != nil {
		return 0, err
	}
	//simlint:alloc(below this call is the file's own budget — a file under the embedded manager locks and holds the page; appending it adds nothing)
	if _, err := s.F.WriteAt(frame.Zero(s.Size), np*int64(s.Size)); err != nil {
		return 0, err
	}
	return np, nil
}

// MemStore is an in-memory Store for unit tests.
type MemStore struct {
	Size  int
	pages [][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore(pageSize int) *MemStore { return &MemStore{Size: pageSize} }

// PageSize implements Store.
func (s *MemStore) PageSize() int { return s.Size }

// NumPages implements Store.
func (s *MemStore) NumPages() (int64, error) { return int64(len(s.pages)), nil }

// ReadPage implements Store.
func (s *MemStore) ReadPage(n int64, p []byte) error {
	if n < 0 || n >= int64(len(s.pages)) {
		return fmt.Errorf("%w: page %d", ErrOutOfRange, n)
	}
	copy(p, s.pages[n])
	return nil
}

// WritePage implements Store.
func (s *MemStore) WritePage(n int64, p []byte) error {
	if n < 0 || n >= int64(len(s.pages)) {
		return fmt.Errorf("%w: page %d", ErrOutOfRange, n)
	}
	copy(s.pages[n], p)
	return nil
}

// AllocPage implements Store.
func (s *MemStore) AllocPage() (int64, error) {
	s.pages = append(s.pages, make([]byte, s.Size))
	return int64(len(s.pages) - 1), nil
}
