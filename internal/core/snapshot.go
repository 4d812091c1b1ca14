package core

import (
	"errors"

	"repro/internal/buffer"
	"repro/internal/detsort"
	"repro/internal/lfs"
	"repro/internal/mvcc"
	"repro/internal/pagestore"
	"repro/internal/trace"
	"repro/internal/vfs"
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
// point is the commit flush, so the horizon is the number of commit flushes
// completed — and then reads a transaction-consistent image of every
// protected file as of that epoch without acquiring a single page lock.
//
// Where the user-level system rewinds pages with WAL before-images, the
// embedded system has no log of its own: the no-overwrite policy IS the
// version repository. Each commit flush supersedes the previous on-disk
// address of every page it rewrites; the version map remembers those
// addresses, and a snapshot read simply reads the old location. The cleaner
// is fenced off from those segments through the retention adapter below.
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
	m.snaps.Pin(h)
	m.stats.Snapshots++
	m.tracer.Instant("txn", "snapshot.begin", trace.AI("epoch", h))
	return &Snapshot{m: m, h: h}
}

// Horizon returns the pinned commit epoch.
func (s *Snapshot) Horizon() int64 { return s.h }

// Close releases the snapshot's pin and prunes every version record no
// remaining snapshot can need, advancing the cleaner's retention horizon.
// Closing twice is a no-op.
func (s *Snapshot) Close() {
	m := s.m
	if s.closed {
		return
	}
	s.closed = true
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
// Cache misses fill a private readahead window with the longest
// physically-contiguous run of committed pages (one seek, one multi-block
// transfer): a scan over data the log has never rewritten runs at
// sequential bandwidth instead of paying a full seek per page, which is
// what keeps a concurrent scan from stealing a page-sized slice of device
// time per row from the writers. Window bytes stay valid for exactly the
// pages the version map has no newer record for — they were fetched while
// this snapshot was pinned, and any later overwrite of a window page would
// have recorded the pre-flush address, diverting the read at use time.
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

// ReadPage reads page n as of the snapshot's epoch.
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
	// A version map hit means a commit after the horizon superseded this
	// page: read the retained pre-commit address straight from the log.
	if addr, ok := m.vers.AddrAt(mvcc.PageID{File: uint64(s.f.id), Block: n}, s.snap.h); ok {
		//simlint:alloc(simulated disk I/O below the lookup hot path: device error checks format)
		return m.fs.ReadAddr(addr, p)
	}
	// The current version is the snapshot version. Serve it from the
	// readahead window or the buffer cache — for the cache, only unless the
	// cached copy is on transaction hold (an uncommitted write); the
	// on-disk copy is still the committed image, because held pages are
	// never written ahead of their commit flush.
	ps := s.PageSize()
	if s.raBase >= 0 && n >= s.raBase && n < s.raBase+int64(s.raLen) {
		m.clock.Advance(m.costs.CacheHit)
		off := int(n-s.raBase) * ps
		copy(p, s.raData[off:off+ps])
		return nil
	}
	if b := m.fs.Pool().Lookup(buffer.BlockID{File: s.f.id, Block: n}); b != nil && !b.Held() {
		m.clock.Advance(m.costs.CacheHit)
		copy(p, b.Data)
		return nil
	}
	id := buffer.BlockID{File: s.f.id, Block: n}
	if s.np == 0 {
		np, err := s.NumPages()
		if err != nil {
			return err
		}
		s.np = np
	}
	want := int64(len(s.raBufs))
	if rem := s.np - n; rem < want {
		want = rem
	}
	if want > 1 {
		//simlint:alloc(cache-miss fault path: the multi-block fetch decodes inodes below the lookup hot path)
		k, err := m.fs.ReadCurrentRun(id, s.raBufs[:want])
		if err != nil {
			return err
		}
		if k > 0 {
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

// capturedAddr is one (page, pre-flush disk address) pair captured ahead of
// a commit flush.
type capturedAddr struct {
	id   buffer.BlockID
	addr int64
}

// capturePreFlushAddrs records, for every page the imminent commit flush
// will rewrite, the disk address it currently occupies — the version a
// snapshot older than this commit must keep reading. Free (and cheap) when
// no snapshot is pinned. The set is the batch's pages plus every dirty
// unheld page of their files (degree-1 write-through dirties pages outside
// any transaction's page list, and the flush supersedes those too).
func (m *Manager) capturePreFlushAddrs(batch []buffer.BlockID) ([]capturedAddr, error) {
	if !m.snaps.Active() {
		return nil, nil
	}
	seen := make(map[buffer.BlockID]bool)
	files := make(map[vfs.FileID]bool)
	for _, id := range batch {
		seen[id] = true
		files[id.File] = true
	}
	pool := m.fs.Pool()
	for _, f := range detsort.Keys(files) {
		for _, b := range pool.DirtyFile(f) {
			seen[b.ID] = true
		}
	}
	capture := make([]capturedAddr, 0, len(seen))
	for _, id := range detsort.KeysFunc(seen, buffer.CompareBlockID) {
		addr, err := m.fs.BlockAddr(id.File, id.Block)
		if err != nil {
			return nil, err
		}
		// addr 0 (a hole: the page never reached disk) is recorded too —
		// at the horizon the page read as zeros, and it must keep doing so.
		capture = append(capture, capturedAddr{id: id, addr: addr})
	}
	return capture, nil
}

// retention adapts the version map and pinned horizons to the LFS cleaner's
// SnapshotRetention interface.
type retention struct {
	m *Manager
}

var _ lfs.SnapshotRetention = (*retention)(nil)

// RetainsRange reports whether any retained version lives in [lo, hi).
func (r *retention) RetainsRange(lo, hi int64) bool {
	return r.m.vers.RetainsRange(lo, hi)
}

// RetainedBlocks returns the number of superseded block versions held for
// pinned snapshots.
func (r *retention) RetainedBlocks() int64 {
	return r.m.vers.RetainedBlocks()
}

// HorizonLag returns how many commit epochs the oldest pinned snapshot
// trails the current epoch (0 when nothing is pinned).
func (r *retention) HorizonLag() int64 {
	oldest, active := r.m.snaps.Oldest()
	if !active {
		return 0
	}
	return r.m.commitSeq - oldest
}
