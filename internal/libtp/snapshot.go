package libtp

import (
	"errors"

	"repro/internal/buffer"
	"repro/internal/detsort"
	"repro/internal/mvcc"
	"repro/internal/pagestore"
	"repro/internal/trace"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// Snapshot errors.
var (
	// ErrSnapshotReadOnly is returned for any write through a snapshot
	// store: snapshot transactions are read-only by contract.
	ErrSnapshotReadOnly = errors.New("libtp: snapshot transactions are read-only")
	// ErrSnapshotDone is returned for reads through a closed snapshot.
	ErrSnapshotDone = errors.New("libtp: snapshot already closed")
)

// Snapshot is a read-only multiversion transaction: it pins the commit
// horizon current at BeginSnapshot and then reads a transaction-consistent
// image of every database as of that horizon — without acquiring a single
// page lock. Writers keep running under ordinary two-phase locking; their
// before-images (already produced for the WAL) rewind pages the snapshot
// reads. Close releases the horizon and prunes every version no remaining
// snapshot needs.
type Snapshot struct {
	env    *Env
	h      wal.LSN
	closed bool
}

// BeginSnapshot starts a read-only snapshot transaction pinned at the
// current end of the log: every transaction whose commit record is already
// in the log is visible, everything later (or still in flight) is not.
// Snapshots do not enter the active-transaction set — they hold no locks
// and write nothing, so checkpoints and quiescence do not wait on them.
func (e *Env) BeginSnapshot() *Snapshot {
	e.clock.Advance(e.costs.TxnOp + e.costs.Syscall)
	h := e.log.End()
	if !e.snaps.Active() {
		// First pinned snapshot: deltas were not being recorded. Seed the
		// chains from the undo logs of every in-flight transaction — those
		// are exactly the writes a snapshot at h must rewind if their
		// transaction commits later (or never). 2PL guarantees at most one
		// writer per page, so per-txn seeding preserves per-page log order.
		for _, id := range detsort.Keys(e.undo) {
			for _, u := range e.undo[id] {
				e.deltas.Record(mvcc.PageID{File: u.db, Block: u.page}, id, u.offset, u.before)
			}
		}
	}
	e.snaps.Pin(int64(h))
	e.stats.SnapshotsBegun++
	e.tracer.Instant("txn", "snapshot.begin", trace.AU("lsn", uint64(h)))
	return &Snapshot{env: e, h: h}
}

// Horizon returns the pinned commit horizon (a WAL LSN).
func (s *Snapshot) Horizon() wal.LSN { return s.h }

// Close releases the snapshot's pin on the commit horizon and prunes every
// version record no remaining snapshot can need. Closing twice is a no-op.
func (s *Snapshot) Close() {
	e := s.env
	if s.closed {
		return
	}
	s.closed = true
	e.tracer.Metrics().Max("mvcc.delta_bytes_peak", e.deltas.Bytes())
	e.snaps.Unpin(int64(s.h))
	oldest, active := e.snaps.Oldest()
	e.deltas.Prune(oldest, active)
	e.tracer.Instant("txn", "snapshot.close", trace.AU("lsn", uint64(s.h)))
}

// Store returns the snapshot's read-only page store for db. Reads are
// lock-free: they serve the current page from the buffer pool and rewind it
// with before-image deltas; writes fail with ErrSnapshotReadOnly.
func (s *Snapshot) Store(db *DB) pagestore.Store {
	return &snapStore{snap: s, db: db}
}

// snapStore is the lock-free read path of a snapshot transaction. It keeps
// the cooperative scheduling point (Yield) of the locking read path so
// multiprogramming interleaves scans with writers at page granularity, but
// never calls the lock manager — no UserSync charge, no blocking, no
// deadlock exposure.
type snapStore struct {
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
	if s.snap.closed {
		return ErrSnapshotDone
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
		copy(p, b.Data)
	} else if err := s.fetch(id, p); err != nil {
		return err
	}
	// Rewind to the horizon: apply before-images of every delta whose
	// transaction committed after the horizon or is still in flight.
	e.deltas.ApplyBefore(mvcc.PageID{File: s.db.id, Block: n}, int64(s.snap.h), p)
	e.stats.PageReads++
	return nil
}

func (s *snapStore) WritePage(int64, []byte) error { return ErrSnapshotReadOnly }
func (s *snapStore) AllocPage() (int64, error)     { return 0, ErrSnapshotReadOnly }

// Sync is a no-op: a read-only transaction has nothing to make durable.
func (s *snapStore) Sync() error { return nil }

// noteCommitLocked stamps (or discards) a committing transaction's version
// deltas once its commit record has a log position. The deltas are kept
// only when some pinned snapshot predates the commit; otherwise nothing can
// ever need them.
func (e *Env) noteCommitLocked(txn uint64, lsn wal.LSN) {
	oldest, active := e.snaps.Oldest()
	e.deltas.Commit(txn, int64(lsn), active && oldest < int64(lsn))
}
