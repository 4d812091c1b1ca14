// Package recno implements a fixed-length record file accessed by record
// number, the db(3) "recno"-style access method the paper's TPC-B history
// relation uses ("records are accessible sequentially or by record number",
// §5.1). Records never span pages, so one record update touches exactly one
// page — the natural unit for page-level locking.
package recno

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/pagestore"
)

// Errors.
var (
	ErrOutOfRange = errors.New("recno: record number out of range")
	ErrCorrupt    = errors.New("recno: corrupt meta page")
	ErrBadSize    = errors.New("recno: record size mismatch")
)

const metaMagic = 0x52454331 // "REC1"

// File is a fixed-length record file.
type File struct {
	st       pagestore.Store
	pageSize int
	recSize  int
	count    int64
}

func (f *File) perPage() int64 { return int64(f.pageSize / f.recSize) }

func (f *File) writeMeta() error {
	b := make([]byte, f.pageSize)
	le := binary.LittleEndian
	le.PutUint32(b[0:], metaMagic)
	le.PutUint32(b[4:], uint32(f.recSize))
	le.PutUint64(b[8:], uint64(f.count))
	return f.st.WritePage(0, b)
}

// Create initializes a new record file with the given record size.
func Create(st pagestore.Store, recSize int) (*File, error) {
	if recSize <= 0 || recSize > st.PageSize() {
		return nil, fmt.Errorf("recno: invalid record size %d", recSize)
	}
	if n, err := st.NumPages(); err != nil {
		return nil, err
	} else if n != 0 {
		return nil, fmt.Errorf("recno: store not empty (%d pages)", n)
	}
	if _, err := st.AllocPage(); err != nil {
		return nil, err
	}
	f := &File{st: st, pageSize: st.PageSize(), recSize: recSize}
	return f, f.writeMeta()
}

// Open loads an existing record file.
func Open(st pagestore.Store) (*File, error) {
	return open(st, pagestore.Store.ReadPage)
}

// OpenForAppend is Open for a caller that will Append: the meta page, which
// every Append rewrites, is read through pagestore.ReadForUpdate so a locking
// store write-locks it at first touch instead of upgrading it later.
func OpenForAppend(st pagestore.Store) (*File, error) {
	return open(st, pagestore.ReadForUpdate)
}

func open(st pagestore.Store, readMeta func(st pagestore.Store, n int64, p []byte) error) (*File, error) {
	f := &File{st: st, pageSize: st.PageSize()}
	b := make([]byte, f.pageSize)
	if err := readMeta(st, 0, b); err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	if le.Uint32(b[0:]) != metaMagic {
		return nil, ErrCorrupt
	}
	f.recSize = int(le.Uint32(b[4:]))
	f.count = int64(le.Uint64(b[8:]))
	if f.recSize <= 0 || f.recSize > f.pageSize {
		return nil, ErrCorrupt
	}
	return f, nil
}

// Count returns the number of records.
func (f *File) Count() int64 { return f.count }

// RecordSize returns the fixed record size.
func (f *File) RecordSize() int { return f.recSize }

// locate maps a record number to (page, byte offset).
func (f *File) locate(n int64) (int64, int) {
	return 1 + n/f.perPage(), int(n % f.perPage() * int64(f.recSize))
}

// Get reads record n.
func (f *File) Get(n int64) ([]byte, error) {
	if n < 0 || n >= f.count {
		return nil, fmt.Errorf("%w: %d of %d", ErrOutOfRange, n, f.count)
	}
	page, off := f.locate(n)
	b := make([]byte, f.pageSize)
	if err := f.st.ReadPage(page, b); err != nil {
		return nil, err
	}
	out := make([]byte, f.recSize)
	copy(out, b[off:off+f.recSize])
	return out, nil
}

// Set overwrites record n.
func (f *File) Set(n int64, rec []byte) error {
	if len(rec) != f.recSize {
		return ErrBadSize
	}
	if n < 0 || n >= f.count {
		return fmt.Errorf("%w: %d of %d", ErrOutOfRange, n, f.count)
	}
	page, off := f.locate(n)
	b := make([]byte, f.pageSize)
	if err := pagestore.ReadForUpdate(f.st, page, b); err != nil {
		return err
	}
	copy(b[off:], rec)
	return f.st.WritePage(page, b)
}

// Append adds a record at the end and returns its record number. Appends are
// sequential: the history file grows page by page, exactly the pattern a
// log-structured file system turns into pure sequential I/O.
func (f *File) Append(rec []byte) (int64, error) {
	if len(rec) != f.recSize {
		return 0, ErrBadSize
	}
	n := f.count
	page, off := f.locate(n)
	np, err := f.st.NumPages()
	if err != nil {
		return 0, err
	}
	for np <= page {
		if _, err := f.st.AllocPage(); err != nil {
			return 0, err
		}
		np++
	}
	b := make([]byte, f.pageSize)
	if off > 0 { // partially filled page: preserve earlier records
		if err := pagestore.ReadForUpdate(f.st, page, b); err != nil {
			return 0, err
		}
	}
	copy(b[off:], rec)
	if err := f.st.WritePage(page, b); err != nil {
		return 0, err
	}
	f.count++
	return n, f.writeMeta()
}

// Scan invokes fn for every record in sequence, stopping early if fn
// returns false.
func (f *File) Scan(fn func(n int64, rec []byte) bool) error {
	b := make([]byte, f.pageSize)
	for n := int64(0); n < f.count; {
		page, _ := f.locate(n)
		if err := f.st.ReadPage(page, b); err != nil {
			return err
		}
		for i := int64(0); i < f.perPage() && n < f.count; i++ {
			off := int(i) * f.recSize
			if !fn(n, b[off:off+f.recSize]) {
				return nil
			}
			n++
		}
	}
	return nil
}
