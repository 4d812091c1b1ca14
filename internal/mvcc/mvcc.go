// Package mvcc is the snapshot transaction of both transaction managers. A
// read-only snapshot pins a commit horizon and then reads a consistent image
// of every page as of that horizon without touching the lock manager;
// writers keep running under ordinary two-phase locking.
//
// Horizons are opaque monotone int64s — WAL log positions on the user side,
// commit epochs on the kernel side — with one meaning: a snapshot pinned at h
// sees every commit whose horizon is at most h. A commit's horizon is
// therefore the first value a snapshot that sees it can pin: the log end past
// its commit record, or the epoch its commit flush starts.
//
// Versions is the one version store. Every transactional write already
// produces a before-image (LIBTP logs it to its WAL, the embedded manager
// keeps it for undo), so an old version is reconstructed in memory by
// applying, newest first, the before-images of every write that committed
// after the horizon (or not at all) to the current page. Nothing on disk is
// retained for a snapshot: the file system, its cleaner included, knows
// nothing about them.
//
// Versions has no lock of its own: like the transaction managers that own
// it, it must be used from proc context, or from the main goroutine while no
// scheduler runs.
package mvcc

import (
	"errors"
	"slices"

	"repro/internal/trace"
)

// Snapshot errors.
var (
	// ErrReadOnly is returned for any write through a snapshot store:
	// snapshot transactions are read-only by contract.
	ErrReadOnly = errors.New("mvcc: snapshot transactions are read-only")
	// ErrClosed is returned for reads through a closed snapshot.
	ErrClosed = errors.New("mvcc: snapshot already closed")
)

// PageID names one logical page: a file and a block number within it.
type PageID struct {
	File  uint64
	Block int64
}

// delta is one record: byte range [off, off+len(before)) of a page held
// before by the write of transaction txn; commit is the transaction's commit
// horizon, or 0 while it is still in flight.
type delta struct {
	txn    uint64
	commit int64
	off    uint32
	before []byte
}

// Versions holds the pinned snapshot horizons and the per-page delta chains
// that rewind pages to them. Chains are kept in write order, and only while
// a snapshot is pinned: with none, writers record nothing.
type Versions struct {
	pins  map[int64]int // pinned horizon → snapshots pinned there
	npins int
	pages map[PageID][]delta
	byTxn map[uint64][]PageID
	bytes int64
	// metrics receives mvcc.delta_bytes_peak, sampled at each close.
	metrics *trace.Metrics
}

// New returns an empty version store reporting to metrics (nil = off).
func New(metrics *trace.Metrics) *Versions {
	return &Versions{
		pins:    make(map[int64]int),
		pages:   make(map[PageID][]delta),
		byTxn:   make(map[uint64][]PageID),
		metrics: metrics,
	}
}

// Active reports whether any snapshot is pinned: writers record their
// before-images only then.
//
//simlint:noalloc
func (v *Versions) Active() bool {
	return v.npins > 0
}

// Begin pins a snapshot at horizon h. At the first pin nothing has been
// recorded, so seed runs first: it must Record the before-images of every
// write a snapshot at h has to rewind — those of the transactions that have
// written and will commit later than h, or never.
func (v *Versions) Begin(h int64, seed func()) *Snapshot {
	if !v.Active() {
		seed()
	}
	v.pins[h]++
	v.npins++
	return &Snapshot{v: v, h: h}
}

// oldest returns the oldest pinned horizon and whether any is pinned.
//
//simlint:noalloc
func (v *Versions) oldest() (int64, bool) {
	if v.npins == 0 {
		return 0, false
	}
	first := true
	var min int64
	//simlint:ordered commutative min over int64 keys: any iteration order yields the same minimum
	for h := range v.pins {
		if first || h < min {
			min, first = h, false
		}
	}
	return min, true
}

// Record appends an uncommitted before-image delta for a write by txn.
// before is retained, not copied: nothing may rewrite it (the embedded
// manager passes a copy of its recycled undo frame).
func (v *Versions) Record(id PageID, txn uint64, off uint32, before []byte) {
	v.pages[id] = append(v.pages[id], delta{txn: txn, off: off, before: before})
	v.byTxn[txn] = append(v.byTxn[txn], id)
	v.bytes += int64(len(before))
}

// Commit stamps every delta of txn with its commit horizon h, so that
// snapshots pinned below h rewind it and those pinned at or above h do not.
// The deltas are kept iff a pinned snapshot is older than h; otherwise no
// snapshot can ever need them, and they go as an abort's do.
func (v *Versions) Commit(txn uint64, h int64) {
	if oldest, ok := v.oldest(); !ok || oldest >= h {
		v.Abort(txn)
		return
	}
	for _, id := range v.byTxn[txn] {
		vs := v.pages[id]
		for i := range vs {
			if vs[i].txn == txn && vs[i].commit == 0 {
				vs[i].commit = h
			}
		}
	}
	delete(v.byTxn, txn)
}

// Abort discards every delta of txn: the abort path restores the page
// bytes, so the chain must read as if the transaction never wrote.
func (v *Versions) Abort(txn uint64) {
	for _, id := range v.byTxn[txn] {
		v.trim(id, func(d delta) bool { return d.txn == txn && d.commit == 0 })
	}
	delete(v.byTxn, txn)
}

// prune drops every committed delta the oldest pinned snapshot sees — no
// snapshot can need it — and, when no snapshot remains pinned, clears the
// store. Uncommitted deltas of live transactions go too in that case: the
// next first pin seeds them again.
func (v *Versions) prune() {
	oldest, ok := v.oldest()
	if !ok {
		clear(v.pages)
		clear(v.byTxn)
		v.bytes = 0
		return
	}
	//simlint:ordered per-entry trim: each chain is filtered independently, no cross-entry order observable
	for id := range v.pages {
		v.trim(id, func(d delta) bool { return d.commit != 0 && d.commit <= oldest })
	}
}

// trim removes the deltas of page id's chain that gone reports, keeping the
// rest in write order.
func (v *Versions) trim(id PageID, gone func(delta) bool) {
	vs := slices.DeleteFunc(v.pages[id], func(d delta) bool {
		if gone(d) {
			v.bytes -= int64(len(d.before))
			return true
		}
		return false
	})
	if len(vs) == 0 {
		delete(v.pages, id)
	} else {
		v.pages[id] = vs
	}
}

// Bytes returns the before-image bytes currently retained in memory.
func (v *Versions) Bytes() int64 {
	return v.bytes
}

// Snapshot is one pinned horizon: the version-store half of a snapshot
// transaction, which each manager wraps with its own page stores.
type Snapshot struct {
	v      *Versions
	h      int64
	closed bool
}

// Horizon returns the pinned horizon.
func (s *Snapshot) Horizon() int64 { return s.h }

// Err returns ErrClosed once the snapshot is closed, nil before.
//
//simlint:noalloc
func (s *Snapshot) Err() error {
	if s.closed {
		return ErrClosed
	}
	return nil
}

// Rewind rewinds page bytes p, the current content of page id, to the
// snapshot's horizon by applying before-images newest first for every delta
// still in flight or committed after it.
//
//simlint:noalloc
func (s *Snapshot) Rewind(id PageID, p []byte) {
	vs := s.v.pages[id]
	for i := len(vs) - 1; i >= 0; i-- {
		d := vs[i]
		if d.commit == 0 || d.commit > s.h {
			copy(p[d.off:], d.before)
		}
	}
}

// Close releases the pin and prunes every delta no remaining snapshot can
// need, first sampling the store's size into mvcc.delta_bytes_peak. It
// reports whether this call closed the snapshot: closing twice is a no-op.
func (s *Snapshot) Close() bool {
	if s.closed {
		return false
	}
	s.closed = true
	v := s.v
	v.metrics.Max("mvcc.delta_bytes_peak", v.Bytes())
	if c := v.pins[s.h]; c == 1 {
		delete(v.pins, s.h)
	} else {
		v.pins[s.h] = c - 1
	}
	v.npins--
	v.prune()
	return true
}

// ReadOnly is embedded by both managers' snapshot page stores: every write
// through a snapshot fails with ErrReadOnly.
type ReadOnly struct{}

func (ReadOnly) WritePage(int64, []byte) error { return ErrReadOnly }
func (ReadOnly) AllocPage() (int64, error)     { return 0, ErrReadOnly }
