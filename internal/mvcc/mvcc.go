// Package mvcc is the version-tracking layer behind snapshot (multiversion)
// reads. A read-only snapshot transaction pins a commit horizon and then
// reads a consistent image of every page as of that horizon without touching
// the lock manager; writers keep running under ordinary two-phase locking.
//
// The package holds two small deterministic structures, allocation-free on
// their lookup paths and with no lock of their own — like the transaction
// managers that own them they must be used from proc context, or from the main
// goroutine while no scheduler runs:
//
//   - Horizons: a refcounted multiset of pinned snapshot horizons. The
//     oldest pinned horizon is the watermark — versions at or below it can
//     never be needed again and are pruned eagerly.
//
//   - DeltaMap: the version store of both transaction managers. Every
//     transactional write already produces a before-image (LIBTP logs it to
//     its WAL, the embedded manager keeps it for undo), so old versions are
//     reconstructed in memory by applying the before-images of all updates
//     that committed after the horizon (or not at all) to the current page,
//     newest first. Nothing on disk is retained for a snapshot: the file
//     system, its cleaner included, knows nothing about them.
package mvcc

// PageID names one logical page: a file and a block number within it.
type PageID struct {
	File  uint64
	Block int64
}

// Horizons is a refcounted multiset of pinned snapshot horizons. Horizons
// are opaque monotone int64s — WAL LSNs on the user side, commit epochs on
// the kernel side.
type Horizons struct {
	pins map[int64]int
	n    int
}

// NewHorizons returns an empty pin set.
func NewHorizons() *Horizons {
	return &Horizons{pins: make(map[int64]int)}
}

// Pin takes one reference on horizon v.
func (h *Horizons) Pin(v int64) {
	h.pins[v]++
	h.n++
}

// Unpin drops one reference on horizon v. It panics if v is not pinned:
// an unbalanced release would silently prune versions a snapshot still reads
// through.
func (h *Horizons) Unpin(v int64) {
	c, ok := h.pins[v]
	if !ok {
		panic("mvcc: Unpin of horizon that is not pinned")
	}
	if c == 1 {
		delete(h.pins, v)
	} else {
		h.pins[v] = c - 1
	}
	h.n--
}

// Active reports whether any snapshot is pinned.
//
//simlint:noalloc
func (h *Horizons) Active() bool {
	return h.n > 0
}

// Oldest returns the oldest pinned horizon — the pruning watermark — and
// whether any horizon is pinned at all.
//
//simlint:noalloc
func (h *Horizons) Oldest() (int64, bool) {
	if h.n == 0 {
		return 0, false
	}
	first := true
	var min int64
	//simlint:ordered commutative min over int64 keys: any iteration order yields the same minimum
	for v := range h.pins {
		if first || v < min {
			min, first = v, false
		}
	}
	return min, true
}

// delta is one record: byte range [off, off+len(before)) of a page held
// before by the write of transaction txn; commit is the transaction's commit
// horizon (an LSN or a commit epoch), or 0 while it is still in flight.
type delta struct {
	txn    uint64
	commit int64
	off    uint32
	before []byte
}

// DeltaMap reconstructs page versions from before-images. Per-page chains
// are kept in write order; reconstructing a page at horizon H applies, newest
// first, the before-image of every delta whose transaction committed after H
// or not at all.
type DeltaMap struct {
	pages map[PageID][]delta
	byTxn map[uint64][]PageID
	bytes int64
}

// NewDeltaMap returns an empty delta map.
func NewDeltaMap() *DeltaMap {
	return &DeltaMap{
		pages: make(map[PageID][]delta),
		byTxn: make(map[uint64][]PageID),
	}
}

// Record appends an uncommitted before-image delta for a write by txn.
// before is retained, not copied: nothing may rewrite it (the embedded
// manager passes a copy of its recycled undo frame).
func (d *DeltaMap) Record(id PageID, txn uint64, off uint32, before []byte) {
	d.pages[id] = append(d.pages[id], delta{txn: txn, off: off, before: before})
	d.byTxn[txn] = append(d.byTxn[txn], id)
	d.bytes += int64(len(before))
}

// Commit stamps every delta of txn with its commit horizon lsn (a WAL LSN or
// a commit epoch), making the deltas visible as "changed after horizon H" for
// all H < lsn. With keep=false (no pinned snapshot predates the commit) the
// deltas are discarded instead — nothing can ever need them.
func (d *DeltaMap) Commit(txn uint64, lsn int64, keep bool) {
	if !keep {
		d.dropTxnLocked(txn)
		return
	}
	for _, id := range d.byTxn[txn] {
		vs := d.pages[id]
		for i := range vs {
			if vs[i].txn == txn && vs[i].commit == 0 {
				vs[i].commit = lsn
			}
		}
	}
	delete(d.byTxn, txn)
}

// Abort discards every delta of txn: the abort path restores the page
// bytes, so the chain must read as if the transaction never wrote.
func (d *DeltaMap) Abort(txn uint64) {
	d.dropTxnLocked(txn)
}

func (d *DeltaMap) dropTxnLocked(txn uint64) {
	for _, id := range d.byTxn[txn] {
		vs := d.pages[id]
		keep := vs[:0]
		for _, v := range vs {
			if v.txn == txn && v.commit == 0 {
				d.bytes -= int64(len(v.before))
				continue
			}
			keep = append(keep, v)
		}
		if len(keep) == 0 {
			delete(d.pages, id)
		} else {
			d.pages[id] = keep
		}
	}
	delete(d.byTxn, txn)
}

// ApplyBefore rewinds page bytes p (the current content of page id) to the
// snapshot horizon h by applying before-images newest-first for every delta
// still in flight or committed after h.
//
//simlint:noalloc
func (d *DeltaMap) ApplyBefore(id PageID, h int64, p []byte) {
	vs := d.pages[id]
	for i := len(vs) - 1; i >= 0; i-- {
		v := vs[i]
		if v.commit == 0 || v.commit > h {
			copy(p[v.off:], v.before)
		}
	}
}

// Prune drops every committed delta at-or-below the watermark — no pinned
// snapshot can need it — and, when no snapshot remains pinned (active is
// false), clears the map entirely. Uncommitted deltas of live transactions
// are dropped too in that case: the next BeginSnapshot re-seeds them from
// the transactions' undo logs.
func (d *DeltaMap) Prune(oldest int64, active bool) {
	if !active {
		clear(d.pages)
		clear(d.byTxn)
		d.bytes = 0
		return
	}
	//simlint:ordered per-entry trim: each chain is filtered independently, no cross-entry order observable
	for id, vs := range d.pages {
		keep := vs[:0]
		for _, v := range vs {
			if v.commit != 0 && v.commit <= oldest {
				d.bytes -= int64(len(v.before))
				continue
			}
			keep = append(keep, v)
		}
		if len(keep) == 0 {
			delete(d.pages, id)
		} else {
			d.pages[id] = keep
		}
	}
}

// Bytes returns the before-image bytes currently retained in memory.
func (d *DeltaMap) Bytes() int64 {
	return d.bytes
}
