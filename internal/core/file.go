package core

import (
	"errors"

	"repro/internal/buffer"
	"repro/internal/frame"
	"repro/internal/lfs"
	"repro/internal/lock"
	"repro/internal/pagestore"
	"repro/internal/vfs"
)

// File is an open file under the embedded transaction manager. The
// interface matches ordinary files; if the file carries the
// transaction-protection attribute, reads and writes acquire page locks
// automatically (§4.2: "a read lock is requested for each page before the
// page request is satisfied ... writes are implemented similarly").
type File struct {
	m  *Manager
	lf *lfs.File
	id vfs.FileID
}

// Open opens an existing file.
func (m *Manager) Open(path string) (*File, error) {
	f, err := m.fs.Open(path)
	if err != nil {
		return nil, err
	}
	lf := f.(*lfs.File)
	return &File{m: m, lf: lf, id: f.ID()}, nil
}

// Create creates a new (unprotected) file; call Protect to enable
// transactions on it.
func (m *Manager) Create(path string) (*File, error) {
	f, err := m.fs.Create(path)
	if err != nil {
		return nil, err
	}
	lf := f.(*lfs.File)
	return &File{m: m, lf: lf, id: f.ID()}, nil
}

// ID returns the file's identity.
func (f *File) ID() vfs.FileID { return f.id }

// Close releases the handle.
func (f *File) Close() error { return f.lf.Close() }

// Size returns the file size.
func (f *File) Size() (int64, error) { return f.lf.Size() }

// Truncate resizes the file (non-transactional administrative operation).
func (f *File) Truncate(size int64) error { return f.lf.Truncate(size) }

// Sync forces the file's dirty blocks to the log.
func (f *File) Sync() error { return f.lf.Sync() }

// pageRange returns the logical blocks covered by [off, off+n).
func (f *File) pageRange(off int64, n int) (first, last int64) {
	bs := int64(f.m.fs.BlockSize())
	first = off / bs
	last = (off + int64(n) - 1) / bs
	if n <= 0 {
		last = first
	}
	return first, last
}

// pageSpan returns the file offsets [lo, hi) of the part of [off, off+n)
// that lies in block pg.
func (f *File) pageSpan(pg, off int64, n int) (lo, hi int64) {
	bs := int64(f.m.fs.BlockSize())
	return max(pg*bs, off), min((pg+1)*bs, off+int64(n))
}

// lockObject acquires one lock object for the transaction, aborting the
// transaction on deadlock. It is the page-access hot path: every read and
// write of every page funnels through here to reach the lock table.
// Pre-committed transactions hold no locks, so a request only ever waits for
// a transaction that is still running.
//
//simlint:noalloc
func (p *Process) lockObject(obj lock.Object, mode lock.Mode) error {
	m := p.m
	// Cooperative scheduling point: this is where a multiprogramming run
	// interleaves processes at page-access granularity (the kernel
	// scheduler's preemption point).
	m.clock.Yield()
	m.clock.Advance(m.costs.KernelSync())
	if err := m.locks.Lock(lock.TxnID(p.txn.id), obj, mode); err != nil {
		if errors.Is(err, lock.ErrDeadlock) {
			p.abortOnDeadlock()
		}
		return err
	}
	return nil
}

// Read reads from the file on behalf of the process. For
// transaction-protected files within a transaction, each covered page is
// read-locked before the request is satisfied; the process sleeps if a lock
// cannot be granted. For unprotected files the only cost over a plain read
// is the lock-necessity check.
func (p *Process) Read(f *File, buf []byte, off int64) (int, error) {
	return p.read(f, buf, off, lock.Read)
}

// read is Read with the lock mode to take: Store.ReadPageForUpdate passes
// lock.Write for a page the caller is about to write.
func (p *Process) read(f *File, buf []byte, off int64, mode lock.Mode) (int, error) {
	m := p.m
	m.clock.Advance(m.costs.Syscall)
	if !f.lf.TxnProtected() {
		m.clock.Advance(checkCost)
		return f.lf.ReadAt(buf, off)
	}
	if p.InTxn() {
		if err := p.lockSpan(f, off, len(buf), mode); err != nil {
			return 0, err
		}
		return f.lf.ReadAt(buf, off)
	}
	// Degree-1 access outside a transaction: per-call locking.
	tmp := &Process{m: m, txn: &Txn{id: m.degreeOneID()}}
	if err := tmp.lockSpan(f, off, len(buf), lock.Read); err != nil {
		return 0, err
	}
	n, err := f.lf.ReadAt(buf, off)
	m.locks.ReleaseAll(lock.TxnID(tmp.txn.id))
	return n, err
}

// Write writes to the file on behalf of the process. For protected files in
// a transaction, each covered page is write-locked, the write lands in the
// buffer cache, and the dirtied buffers move onto the inode's transaction
// list (a buffer hold): they stay in memory until commit (§4, restriction
// 1) and are invisible to the segment writer until then.
func (p *Process) Write(f *File, data []byte, off int64) (int, error) {
	m := p.m
	m.clock.Advance(m.costs.Syscall)
	if !f.lf.TxnProtected() {
		m.clock.Advance(checkCost)
		return f.lf.WriteAt(data, off)
	}
	first, last := f.pageRange(off, len(data))
	bs := int64(m.fs.BlockSize())
	if p.InTxn() {
		t := p.txn
		n := 0
		// Write and hold page by page: each dirtied buffer joins the
		// inode's transaction list before the next page is touched, so
		// cache pressure can never push an uncommitted page to the log.
		// A transaction whose write set exceeds the cache surfaces
		// buffer.ErrNoBuffers — the paper's restriction (1) made
		// explicit.
		for pg := first; pg <= last; pg++ {
			lo, hi := f.pageSpan(pg, off, len(data))
			if err := p.lockSpan(f, lo, int(hi-lo), lock.Write); err != nil {
				return n, err
			}
			w, err := m.writeHeldLocked(t, f, pg, data[lo-off:hi-off], int(lo-pg*bs))
			n += w
			if err != nil {
				return n, err
			}
		}
		return n, nil
	}
	// Degree-1 write outside a transaction: lock, write through, unlock.
	tmp := &Process{m: m, txn: &Txn{id: m.degreeOneID()}}
	if err := tmp.lockSpan(f, off, len(data), lock.Write); err != nil {
		return 0, err
	}
	defer m.locks.ReleaseAll(lock.TxnID(tmp.txn.id))
	if !m.vers.Active() {
		return f.lf.WriteAt(data, off)
	}
	// A pinned snapshot keeps the write's before-image too. The write is its
	// own commit point and takes an epoch of its own: the snapshots pinned
	// before it rewind it, and every snapshot pinned after it sees it — the
	// rule that holds, with nothing recorded, when no snapshot is pinned.
	before := make([]byte, len(data))
	n, err := f.lf.ReadAt(before, off)
	if err != nil {
		return 0, err
	}
	clear(before[n:])
	for pg := first; pg <= last; pg++ {
		lo, hi := f.pageSpan(pg, off, len(data))
		m.recordVersionLocked(tmp.txn.id, buffer.BlockID{File: f.id, Block: pg}, int(lo-pg*bs), before[lo-off:hi-off])
	}
	n, err = f.lf.WriteAt(data, off)
	m.commitSeq++
	m.vers.Commit(tmp.txn.id, m.commitSeq)
	return n, err
}

// degreeOneID allocates a transaction identifier for a single-call
// degree-1 access.
func (m *Manager) degreeOneID() uint64 {
	m.nextTxn++
	return m.nextTxn
}

// Store adapts a protected file to the pagestore interface so the access
// methods (btree, recno) run unchanged on the embedded system — the paper's
// point that applications keep their existing record interfaces and gain
// transactions from the file system.
type Store struct {
	p *Process
	f *File
}

var _ pagestore.UpdateReader = (*Store)(nil)

// NewStore binds a process and file into a page store.
func NewStore(p *Process, f *File) *Store { return &Store{p: p, f: f} }

// PageSize implements pagestore.Store.
func (s *Store) PageSize() int { return s.f.m.fs.BlockSize() }

// NumPages implements pagestore.Store.
func (s *Store) NumPages() (int64, error) {
	sz, err := s.f.lf.Size()
	if err != nil {
		return 0, err
	}
	ps := int64(s.PageSize())
	return (sz + ps - 1) / ps, nil
}

// ReadPage implements pagestore.Store.
func (s *Store) ReadPage(n int64, p []byte) error { return s.read(n, p, lock.Read) }

// read fills p with page n under a lock of the given mode; what lies past the
// end of the file reads as zero.
func (s *Store) read(n int64, p []byte, mode lock.Mode) error {
	got, err := s.p.read(s.f, p, n*int64(s.PageSize()), mode)
	clear(p[got:])
	return err
}

// ReadPageForUpdate implements pagestore.UpdateReader: the write lock is
// taken at first touch, so two transactions that read and then write one hot
// page queue for it instead of deadlocking on the read-to-write upgrade.
func (s *Store) ReadPageForUpdate(n int64, p []byte) error { return s.read(n, p, lock.Write) }

// WritePage implements pagestore.Store.
func (s *Store) WritePage(n int64, p []byte) error {
	_, err := s.p.Write(s.f, p, n*int64(s.PageSize()))
	return err
}

// AllocPage implements pagestore.Store: extend the file by one page. The
// extension itself is transactional to the extent that the new page's data
// is held until commit; an abort leaves a zero-filled tail that the B-tree
// and hash index never reference (the page that pointed there rolls back)
// and that recno counts as empty and fills with the next append.
//
//simlint:noalloc
func (s *Store) AllocPage() (int64, error) {
	np, err := s.NumPages()
	if err != nil {
		return 0, err
	}
	//simlint:alloc(the transactional write below — locks, before-image, hold — is Process.Write's budget; appending the page adds nothing to it)
	if _, err := s.p.Write(s.f, frame.Zero(s.PageSize()), np*int64(s.PageSize())); err != nil {
		return 0, err
	}
	return np, nil
}
