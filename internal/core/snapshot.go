package core

import (
	"errors"
	"slices"

	"repro/internal/buffer"
	"repro/internal/detsort"
	"repro/internal/mvcc"
	"repro/internal/pagestore"
	"repro/internal/trace"
)

// Snapshot errors.
var (
	// ErrSnapshotReadOnly is returned for any write through a snapshot
	// store: snapshot transactions are read-only by contract.
	ErrSnapshotReadOnly = errors.New("core: snapshot transactions are read-only")
	// ErrSnapshotDone is returned for reads through a closed snapshot.
	ErrSnapshotDone = errors.New("core: snapshot already closed")
)

// Snapshot is a read-only multiversion transaction on the embedded system.
// It pins the commit epoch current at BeginSnapshot — the kernel's commit
// point is the commit flush, so the horizon counts the commit flushes
// completed (and the degree-1 writes made under an earlier pin) — and then
// reads a transaction-consistent image of every protected file as of that
// epoch without acquiring a single page lock.
//
// Versions are in-memory before-images, as LIBTP's are: while a snapshot is
// pinned the manager keeps a copy of each write's in its version store,
// stamped with the commit epoch once the batch is in the log, and a snapshot
// read rewinds the page's current image to the horizon with them.
type Snapshot struct {
	m      *Manager
	h      int64
	closed bool
}

// BeginSnapshot starts a read-only snapshot transaction pinned at the
// current commit epoch. Transactions whose commit flush has completed are
// visible; committed-but-unflushed (pending group commit) and in-flight
// transactions are not — in this design a transaction's commit point is its
// flush. Snapshots hold no locks and never enter the pending list, so they
// cannot deadlock, block writers, or delay checkpoints.
func (m *Manager) BeginSnapshot() *Snapshot {
	m.clock.Advance(m.costs.Syscall + m.costs.TxnOp)
	h := m.commitSeq
	if !m.snaps.Active() {
		m.seedVersionsLocked()
	}
	m.snaps.Pin(h)
	m.stats.Snapshots++
	m.tracer.Instant("txn", "snapshot.begin", trace.AI("epoch", h))
	return &Snapshot{m: m, h: h}
}

// seedVersionsLocked fills the empty version store at the first pin from the
// undo of the pre-committed transactions, in pre-commit order, then of the
// running ones: the writes a snapshot at this epoch must rewind, in the order
// they hit each page (a page's lock passes on at pre-commit, and running
// writers of one page hold disjoint slots).
func (m *Manager) seedVersionsLocked() {
	txns := slices.Clone(m.pending)
	running := make(map[uint64]*Txn)
	//simlint:ordered set union; the sorted key list below fixes the order
	for _, hp := range m.held {
		for _, w := range hp.writers {
			running[w.id] = w
		}
	}
	for _, id := range detsort.Keys(running) {
		txns = append(txns, running[id])
	}
	for _, t := range txns {
		for _, u := range t.undo {
			m.recordVersionLocked(t.id, u.id, u.offset, u.before)
		}
	}
}

// recordVersionLocked keeps a copy of one before-image for the pinned
// snapshots: undo frames are recycled when their transaction ends.
func (m *Manager) recordVersionLocked(txn uint64, id buffer.BlockID, off int, before []byte) {
	//simlint:alloc(only while a snapshot is pinned: the version store keeps the bytes past the undo frame's life)
	img := append([]byte(nil), before...)
	m.vers.Record(mvcc.PageID{File: uint64(id.File), Block: id.Block}, txn, uint32(off), img)
	m.stats.VersionsRecorded++
}

// Horizon returns the pinned commit epoch.
func (s *Snapshot) Horizon() int64 { return s.h }

// Close releases the snapshot's pin and prunes every before-image no
// remaining snapshot can need. Closing twice is a no-op.
func (s *Snapshot) Close() {
	m := s.m
	if s.closed {
		return
	}
	s.closed = true
	m.tracer.Metrics().Max("mvcc.delta_bytes_peak", m.vers.Bytes())
	m.snaps.Unpin(s.h)
	oldest, active := m.snaps.Oldest()
	m.vers.Prune(oldest, active)
	m.tracer.Instant("txn", "snapshot.close", trace.AI("epoch", s.h))
}

// Store returns the snapshot's read-only page store for f, so the access
// methods (btree, recno, hashidx) scan old versions unchanged.
func (s *Snapshot) Store(f *File) pagestore.Store {
	ps := s.m.fs.BlockSize()
	st := &snapStore{snap: s, f: f, raBase: -1}
	st.raData = make([]byte, snapReadahead*ps)
	st.raBufs = make([][]byte, snapReadahead)
	for i := range st.raBufs {
		st.raBufs[i] = st.raData[i*ps : (i+1)*ps]
	}
	return st
}

// snapReadahead is the snapshot store's readahead window, in pages.
const snapReadahead = 32

// snapStore is the lock-free read path of an embedded snapshot. It keeps
// the cooperative scheduling point (Yield) of the locking path so scans
// interleave with writers at page granularity, but never touches the lock
// table — no kernel semaphore charge, no blocking, no deadlock exposure.
//
// A page's current image is the resident buffer, held or not. A miss is not
// faulted into the cache (a scan would evict the writers' hot set): it fills
// a private readahead window with the longest physically-contiguous run of
// logged pages in one transfer, so a scan over data the log has never
// rewritten runs at sequential bandwidth. Window images stay good for the
// snapshot's life: every later write to a window page leaves a before-image,
// and rewinding restores each byte one covers whatever the image held — so
// rewinding an image already rewound, as a resident page enters the window,
// changes nothing.
type snapStore struct {
	snap   *Snapshot
	f      *File
	raBase int64 // first page in the readahead window; -1 = empty
	raLen  int   // valid pages in the window
	raData []byte
	raBufs [][]byte
	np     int64 // NumPages, resolved at the first miss (0 = unknown)
}

func (s *snapStore) PageSize() int { return s.f.m.fs.BlockSize() }

func (s *snapStore) NumPages() (int64, error) {
	sz, err := s.f.lf.Size()
	if err != nil {
		return 0, err
	}
	ps := int64(s.PageSize())
	return (sz + ps - 1) / ps, nil
}

// ReadPage reads page n as of the snapshot's epoch: its current image
// rewound by every write committed after the horizon or not yet.
//
//simlint:noalloc
func (s *snapStore) ReadPage(n int64, p []byte) error {
	if s.snap.closed {
		return ErrSnapshotDone
	}
	m := s.snap.m
	// Scheduling point without a lock-manager call: the scan interleaves
	// but cannot block anyone and nothing can block it.
	m.clock.Yield()
	m.clock.Advance(m.costs.Syscall + checkCost)
	if err := s.readCurrent(n, p); err != nil {
		return err
	}
	m.vers.ApplyBefore(mvcc.PageID{File: uint64(s.f.id), Block: n}, s.snap.h, p)
	return nil
}

// readCurrent fills p with page n's current image: the resident buffer, the
// readahead window, or the log.
//
//simlint:noalloc
func (s *snapStore) readCurrent(n int64, p []byte) error {
	m := s.snap.m
	id := buffer.BlockID{File: s.f.id, Block: n}
	if b := m.fs.Pool().Lookup(id); b != nil {
		m.clock.Advance(m.costs.CacheHit)
		copy(p, b.Data)
		return nil
	}
	ps := s.PageSize()
	if s.raBase >= 0 && n >= s.raBase && n < s.raBase+int64(s.raLen) {
		m.clock.Advance(m.costs.CacheHit)
		off := int(n-s.raBase) * ps
		copy(p, s.raData[off:off+ps])
		return nil
	}
	if s.np == 0 {
		np, err := s.NumPages()
		if err != nil {
			return err
		}
		s.np = np
	}
	if want := min(int64(len(s.raBufs)), s.np-n); want > 1 {
		//simlint:alloc(cache-miss fault path: the multi-block fetch decodes inodes below the lookup hot path)
		k, err := m.fs.ReadCurrentRun(id, s.raBufs[:want])
		if err != nil {
			return err
		}
		if k > 0 {
			// A resident page's logged image may lack a degree-1 write
			// from before the pin: take the resident one, rewound now,
			// since a holder that aborts takes its deltas with it.
			for i := 1; i < k; i++ {
				pg := n + int64(i)
				if b := m.fs.Pool().Lookup(buffer.BlockID{File: s.f.id, Block: pg}); b != nil {
					copy(s.raBufs[i], b.Data)
					m.vers.ApplyBefore(mvcc.PageID{File: uint64(s.f.id), Block: pg}, s.snap.h, s.raBufs[i])
				}
			}
			s.raBase, s.raLen = n, k
			copy(p, s.raData[:ps])
			return nil
		}
	}
	//simlint:alloc(cache-miss fault path: the inode walk decodes below the lookup hot path)
	return m.fs.ReadCurrent(id, p)
}

func (s *snapStore) WritePage(int64, []byte) error { return ErrSnapshotReadOnly }
func (s *snapStore) AllocPage() (int64, error)     { return 0, ErrSnapshotReadOnly }

// Sync is a no-op: a read-only transaction has nothing to make durable.
func (s *snapStore) Sync() error { return nil }
