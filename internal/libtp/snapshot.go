package libtp

import (
	"repro/internal/buffer"
	"repro/internal/detsort"
	"repro/internal/mvcc"
	"repro/internal/pagestore"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// Snapshot is a read-only multiversion transaction: it pins the commit
// horizon current at BeginSnapshot and then reads a transaction-consistent
// image of every database as of that horizon — without acquiring a single
// page lock. Writers keep running under ordinary two-phase locking; their
// before-images (already produced for the WAL) rewind pages the snapshot
// reads. Close releases the horizon and prunes every version no remaining
// snapshot needs.
type Snapshot struct {
	v   *mvcc.Snapshot
	env *Env
}

// BeginSnapshot starts a read-only snapshot transaction pinned at the
// current end of the log: every transaction whose commit record is already
// in the log is visible, everything later (or still in flight) is not.
// Snapshots do not enter the active-transaction set — they hold no locks
// and write nothing, so checkpoints and quiescence do not wait on them.
func (e *Env) BeginSnapshot() *Snapshot {
	e.clock.Advance(e.costs.TxnOp + e.costs.Syscall)
	h := e.log.End()
	// The first pin seeds the version store from the undo logs of every
	// in-flight transaction — exactly the writes a snapshot at h must rewind
	// if their transaction commits later (or never). 2PL guarantees at most
	// one writer per page, so per-txn seeding preserves per-page log order.
	v := e.vers.Begin(int64(h), func() {
		for _, id := range detsort.Keys(e.undo) {
			for _, u := range e.undo[id] {
				e.vers.Record(mvcc.PageID{File: u.db, Block: u.page}, id, u.offset, u.before)
			}
		}
	})
	e.stats.SnapshotsBegun++
	e.tracer.Instant("txn", "snapshot.begin", trace.AU("lsn", uint64(h)))
	return &Snapshot{v: v, env: e}
}

// VersionBytes returns the before-image bytes the version store holds.
func (e *Env) VersionBytes() int64 { return e.vers.Bytes() }

// Close releases the snapshot's pin on the commit horizon and prunes every
// version record no remaining snapshot can need. Closing twice is a no-op.
func (s *Snapshot) Close() {
	if s.v.Close() {
		s.env.tracer.Instant("txn", "snapshot.close", trace.AU("lsn", uint64(s.v.Horizon())))
	}
}

// Store returns the snapshot's read-only page store for db. Reads are
// lock-free: they serve the current page from the buffer pool and rewind it
// with before-image deltas; writes fail with mvcc.ErrReadOnly.
func (s *Snapshot) Store(db *DB) pagestore.Store {
	return &snapStore{snap: s, db: db}
}

// snapStore is the lock-free read path of a snapshot transaction. It keeps
// the cooperative scheduling point (Yield) of the locking read path so
// multiprogramming interleaves scans with writers at page granularity, but
// never calls the lock manager — no UserSync charge, no blocking, no
// deadlock exposure.
type snapStore struct {
	mvcc.ReadOnly
	snap *Snapshot
	db   *DB
}

func (s *snapStore) PageSize() int { return s.snap.env.pool.BlockSize() }

func (s *snapStore) NumPages() (int64, error) {
	return s.db.numPages()
}

// fetch loads a page of the database file into the pool (same syscall +
// copyout cost as the locking path's fetch).
func (s *snapStore) fetch(id buffer.BlockID, dst []byte) error {
	e := s.snap.env
	e.clock.Advance(e.costs.Syscall + e.costs.PageCopy)
	return readPage(s.db.f, id.Block, dst)
}

func (s *snapStore) ReadPage(n int64, p []byte) error {
	if err := s.snap.v.Err(); err != nil {
		return err
	}
	e := s.snap.env
	// Scheduling point without a lock-manager call: the scan interleaves
	// but cannot block anyone and nothing can block it.
	e.clock.Yield()
	e.clock.Advance(e.costs.CacheHit)
	// Serve pool-resident pages from the pool, but fault misses straight
	// into the caller's buffer without inserting them: a scan touches every
	// page once, and letting it populate the shared pool would evict the
	// writers' hot set (scan pollution) for bytes nobody reads twice.
	id := buffer.BlockID{File: vfs.FileID(s.db.id), Block: n}
	if b := e.pool.Lookup(id); b != nil {
		e.pool.Await(b)
		copy(p, b.Data)
	} else if err := s.fetch(id, p); err != nil {
		return err
	}
	// Rewind to the horizon: apply before-images of every delta whose
	// transaction committed after the horizon or is still in flight.
	s.snap.v.Rewind(mvcc.PageID{File: s.db.id, Block: n}, p)
	e.stats.PageReads++
	return nil
}
