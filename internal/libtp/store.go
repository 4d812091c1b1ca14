package libtp

import (
	"errors"

	"repro/internal/buffer"
	"repro/internal/frame"
	"repro/internal/lock"
	"repro/internal/mvcc"
	"repro/internal/pagestore"
	"repro/internal/vfs"
)

// txnStore is the transactional page store a transaction uses to address a
// database: the point where the record layer (Figure 2's "Record" module)
// calls into the buffer, lock, and log managers.
//
//   - ReadPage: acquire a read lock on (db, page), then serve the page from
//     the user-level buffer pool (or fault it in from the file).
//   - ReadPageForUpdate: the same read under the write lock, for a page the
//     caller is about to write (no read→write upgrade later).
//   - WritePage: acquire a write lock unless the transaction holds one on
//     the page already, log the changed byte range (before/after images),
//     update the cached page, remember the before-image for in-memory abort.
//
// Locking is strictly two-phase: locks accumulate until commit/abort.
type txnStore struct {
	t  *Txn
	db *DB
}

func (s *txnStore) PageSize() int { return s.t.env.pool.BlockSize() }

func (s *txnStore) NumPages() (int64, error) {
	return s.db.numPages()
}

// fetch loads a page of the database file into the pool: a read() system
// call into the kernel's file system, plus the copyout of the whole page
// into the user-level pool (§1's double-buffering cost — whether the kernel
// served it from its own cache or from disk).
func (s *txnStore) fetch(id buffer.BlockID, dst []byte) error {
	s.t.env.clock.Advance(s.t.env.costs.Syscall + s.t.env.costs.PageCopy)
	return readPage(s.db.f, id.Block, dst)
}

// readPage fills dst, one page long, with page n of f. dst is a recycled pool
// frame, so what a read stopping at the end of the file leaves untouched is
// cleared: bytes past the end read as zero.
func readPage(f vfs.File, n int64, dst []byte) error {
	got, err := f.ReadAt(dst, n*int64(len(dst)))
	clear(dst[got:])
	return err
}

// object names page n of the database in the lock manager.
func (s *txnStore) object(n int64) lock.Object {
	return lock.Object{File: s.db.id, Block: n}
}

// lock is a page access's entry: a scheduling point, then a lock-manager
// request.
func (s *txnStore) lock(page int64, mode lock.Mode) error {
	// Cooperative scheduling point: this is where a multiprogramming run
	// interleaves clients at page-access granularity.
	s.t.env.clock.Yield()
	return s.request(page, mode)
}

// request is one lock-manager call: a semaphore acquire/release in user
// space, then the lock itself.
func (s *txnStore) request(page int64, mode lock.Mode) error {
	e := s.t.env
	e.clock.Advance(e.costs.UserSync())
	err := e.locks.Lock(lock.TxnID(s.t.id), s.object(page), mode)
	if err != nil && errors.Is(err, lock.ErrDeadlock) {
		// Two-phase locking contract: the victim must abort, which the
		// record layer does by surfacing the error to Txn.Abort's caller.
		e.locks.NoteDeadlockAbort()
	}
	return err
}

var _ pagestore.UpdateReader = (*txnStore)(nil)

func (s *txnStore) ReadPage(n int64, p []byte) error { return s.read(n, p, lock.Read) }

// ReadPageForUpdate implements pagestore.UpdateReader: the write lock is
// taken at first touch, so two transactions that read and then write one hot
// page queue for it instead of deadlocking on the read-to-write upgrade. It
// is one lock-manager call at the same cost as ReadPage's.
func (s *txnStore) ReadPageForUpdate(n int64, p []byte) error { return s.read(n, p, lock.Write) }

func (s *txnStore) read(n int64, p []byte, mode lock.Mode) error {
	if s.t.done {
		return ErrTxnDone
	}
	if err := s.lock(n, mode); err != nil {
		return err
	}
	e := s.t.env
	e.clock.Advance(e.costs.CacheHit)
	b, err := e.pool.Get(buffer.BlockID{File: vfs.FileID(s.db.id), Block: n}, s.fetch)
	if err != nil {
		return err
	}
	copy(p, b.Data)
	e.pool.Release(b)
	e.stats.PageReads++
	return nil
}

// WritePage puts back a page the caller changed. LIBTP's buffer manager
// hands the access method a pinned page that is changed in place and put
// back dirty, so a page the transaction already holds a write lock on (a
// read for update, an earlier write) costs no second lock-manager request;
// the transaction's own lock chain says which pages those are. A page held
// only shared (an upgrade), or not held at all (one AllocPage just added),
// is still requested.
func (s *txnStore) WritePage(n int64, p []byte) error {
	if s.t.done {
		return ErrTxnDone
	}
	e := s.t.env
	e.clock.Yield()
	if mode, ok := e.locks.Holds(lock.TxnID(s.t.id), s.object(n)); !ok || mode != lock.Write {
		if err := s.request(n, lock.Write); err != nil {
			return err
		}
	}
	e.clock.Advance(e.costs.CacheHit)
	id := buffer.BlockID{File: vfs.FileID(s.db.id), Block: n}
	b, err := e.pool.GetForWrite(id, s.fetch)
	if err != nil {
		return err
	}
	defer e.pool.Release(b)

	// Log only the changed byte range (WAL delta logging, §4.3).
	lo, hi := buffer.Hull(b.Data, p)
	if lo < hi {
		before := append([]byte(nil), b.Data[lo:hi]...)
		if _, err := e.log.LogUpdate(s.t.id, s.db.id, n, uint32(lo), before, p[lo:hi]); err != nil {
			return err
		}
		e.undo[s.t.id] = append(e.undo[s.t.id], undoRec{db: s.db.id, page: n, offset: uint32(lo), before: before})
		if e.vers.Active() {
			// A pinned snapshot may need to rewind this write: record the
			// same before-image (shared, immutable) as a version delta.
			e.vers.Record(mvcc.PageID{File: s.db.id, Block: n}, s.t.id, uint32(lo), before)
		}
		copy(b.Data, p)
		e.loggedLocked(b)
	}
	e.stats.PageWrite++
	return nil
}

// AllocPage extends the database file by one zeroed page. Growth is not
// undone on abort: an aborted transaction may leave zeroed pages at the tail.
// The B-tree and the hash index never reach them (the page that would have
// pointed there was rolled back); recno derives its record count from the
// tail, counts an empty one as zero records and fills it with the next append.
// The new page is not locked here, so another transaction can find and lock it
// before the caller writes it.
//
//simlint:noalloc
func (s *txnStore) AllocPage() (int64, error) {
	if s.t.done {
		return 0, ErrTxnDone
	}
	e := s.t.env
	np, err := s.db.numPages()
	if err != nil {
		return 0, err
	}
	zero := frame.Zero(e.pool.BlockSize())
	e.clock.Advance(e.costs.Syscall + e.costs.PageCopy) // write() of the new page
	//simlint:alloc(below this call is the file's own budget — a file under the embedded manager locks and holds the page; appending it adds nothing)
	if _, err := s.db.f.WriteAt(zero, np*int64(len(zero))); err != nil {
		return 0, err
	}
	return np, nil
}
