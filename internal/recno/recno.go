// Package recno implements a fixed-length record file accessed by record
// number, the db(3) "recno"-style access method the paper's TPC-B history
// relation uses ("records are accessible sequentially or by record number",
// §5.1). Records never span pages, so one record update touches exactly one
// page — the natural unit for page-level locking.
//
// Page 0 holds the magic number and the record size and is never rewritten.
// Every later page is an array of slots, each one used-flag byte followed by
// the record. Pages fill in order, so all but the last are full and the record
// count is (pages−2)·perPage + the number of used slots on the last page: an
// append rewrites the tail page only, and the bytes it changes — flag and
// record — are contiguous, which is what a store that logs the enclosing
// changed byte range (LIBTP) pays for.
package recno

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/frame"
	"repro/internal/pagestore"
)

// Errors.
var (
	ErrOutOfRange = errors.New("recno: record number out of range")
	ErrCorrupt    = errors.New("recno: corrupt meta page")
	ErrBadSize    = errors.New("recno: record size mismatch")
	// ErrOldFormat rejects a version-1 file, whose meta page carried the
	// record count and whose pages had no used flags.
	ErrOldFormat = errors.New("recno: version-1 file (record count in the meta page) is not supported")
)

const (
	metaMagic   = 0x52454332 // "REC2"
	metaMagicV1 = 0x52454331 // "REC1"
)

// File is a fixed-length record file.
type File struct {
	st       pagestore.Store
	pageSize int
	recSize  int
	count    int64
	// tail is the image of page tailPage, the last page of the file, as read
	// when the file was opened or as last written through this handle.
	// tailPage 0 means the file has no data page yet (tail is then scratch).
	tail     []byte
	tailPage int64
	// frames is where tail was taken from and where Close gives it back: the
	// relation's list a caller handed to OpenForAppendFrom, or one of the
	// handle's own.
	frames *frame.List
}

func (f *File) slotSize() int  { return 1 + f.recSize }
func (f *File) perPage() int64 { return int64(f.pageSize / f.slotSize()) }

// Create initializes a new record file with the given record size.
func Create(st pagestore.Store, recSize int) (*File, error) {
	if recSize <= 0 || 1+recSize > st.PageSize() {
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
	meta := make([]byte, st.PageSize())
	le := binary.LittleEndian
	le.PutUint32(meta[0:], metaMagic)
	le.PutUint32(meta[4:], uint32(recSize))
	if err := st.WritePage(0, meta); err != nil {
		return nil, err
	}
	own := frame.NewList(len(meta))
	return &File{st: st, pageSize: len(meta), recSize: recSize, tail: meta, frames: &own}, nil
}

// Open loads an existing record file.
func Open(st pagestore.Store) (*File, error) {
	return open(st, pagestore.Store.ReadPage, nil)
}

// OpenForAppend is Open for a caller that will Append: the tail page, which
// the Append rewrites, is read through pagestore.ReadForUpdate so a locking
// store write-locks it at first touch instead of upgrading it later. The meta
// page is read plainly: nothing ever writes it.
func OpenForAppend(st pagestore.Store) (*File, error) {
	return open(st, pagestore.ReadForUpdate, nil)
}

// OpenForAppendFrom is OpenForAppend for a caller that opens the file once
// per transaction: the handle's page image is taken from frames, a list of
// st.PageSize() frames that the caller keeps for the relation and guards, and
// goes back to it at Close.
func OpenForAppendFrom(st pagestore.Store, frames *frame.List) (*File, error) {
	return open(st, pagestore.ReadForUpdate, frames)
}

// Close gives the handle's page image back to the list it came from; the
// handle must not be used afterwards. It matters for a handle opened with
// OpenForAppendFrom, whose list outlives it; any other handle may simply be
// dropped.
func (f *File) Close() {
	if f.tail != nil {
		f.frames.Give(f.tail)
		f.tail = nil
	}
}

// readFunc is pagestore.Store.ReadPage or pagestore.ReadForUpdate.
type readFunc func(st pagestore.Store, n int64, p []byte) error

func open(st pagestore.Store, readTail readFunc, frames *frame.List) (*File, error) {
	if frames == nil {
		own := frame.NewList(st.PageSize())
		frames = &own
	}
	f := &File{st: st, pageSize: st.PageSize(), frames: frames, tail: frames.Take()}
	if err := f.load(readTail); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// load reads the meta page and then the tail page into f.tail.
func (f *File) load(readTail readFunc) error {
	if err := f.st.ReadPage(0, f.tail); err != nil {
		return err
	}
	le := binary.LittleEndian
	switch le.Uint32(f.tail[0:]) {
	case metaMagic:
	case metaMagicV1:
		return ErrOldFormat
	default:
		return ErrCorrupt
	}
	f.recSize = int(le.Uint32(f.tail[4:]))
	if f.recSize <= 0 || f.slotSize() > f.pageSize {
		return ErrCorrupt
	}
	return f.loadTail(readTail)
}

// loadTail reads the last page of the file through read and derives the
// record count from how far it is filled. An allocated but empty tail is what
// an appender that aborted after its AllocPage leaves behind (stores do not
// undo growth); the next append fills it.
func (f *File) loadTail(read readFunc) error {
	np, err := f.st.NumPages()
	if err != nil {
		return err
	}
	for {
		f.tailPage = np - 1
		if f.tailPage < 1 {
			f.count, f.tailPage = 0, 0
			return nil
		}
		if err := read(f.st, f.tailPage, f.tail); err != nil {
			return err
		}
		// A locking store may have made the read wait for an appender that
		// filled this page and allocated the next.
		now, err := f.st.NumPages()
		if err != nil {
			return err
		}
		if now == np {
			break
		}
		np = now
	}
	used := int64(0)
	for used < f.perPage() && f.tail[int(used)*f.slotSize()] != 0 {
		used++
	}
	f.count = (np-2)*f.perPage() + used
	return nil
}

// Count returns the number of records.
func (f *File) Count() int64 { return f.count }

// RecordSize returns the fixed record size.
func (f *File) RecordSize() int { return f.recSize }

// locate maps a record number to (page, byte offset of its slot).
func (f *File) locate(n int64) (int64, int) {
	return 1 + n/f.perPage(), int(n%f.perPage()) * f.slotSize()
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
	copy(out, b[off+1:])
	return out, nil
}

// Append adds a record at the end and returns its record number. Appends are
// sequential: the history file grows page by page, exactly the pattern a
// log-structured file system turns into pure sequential I/O.
func (f *File) Append(rec []byte) (int64, error) {
	if len(rec) != f.recSize {
		return 0, ErrBadSize
	}
	page, off := f.locate(f.count)
	for page != f.tailPage {
		// The tail is full (or there is no data page yet): the record opens
		// a new page. Our lock on the full tail kept other appenders out up
		// to the AllocPage, but one that found the new page since may fill
		// slots of it first, so its image — and with it the slot — is taken
		// under its own lock.
		np, err := f.st.NumPages()
		if err != nil {
			return 0, err
		}
		if np <= page {
			if _, err := f.st.AllocPage(); err != nil {
				return 0, err
			}
		}
		if err := f.loadTail(pagestore.ReadForUpdate); err != nil {
			return 0, err
		}
		page, off = f.locate(f.count)
	}
	f.tail[off] = 1
	copy(f.tail[off+1:], rec)
	if err := f.st.WritePage(page, f.tail); err != nil {
		return 0, err
	}
	f.count++
	return f.count - 1, nil
}
