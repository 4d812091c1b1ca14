// Package mvcc is the version-tracking layer behind snapshot (multiversion)
// reads. A read-only snapshot transaction pins a commit horizon and then
// reads a consistent image of every page as of that horizon without touching
// the lock manager; writers keep running under ordinary two-phase locking.
//
// The package holds three small deterministic structures, allocation-free on
// their lookup paths and with no lock of their own — like the transaction
// managers that own them they must be used from proc context, or from the main
// goroutine while no scheduler runs:
//
//   - Horizons: a refcounted multiset of pinned snapshot horizons. The
//     oldest pinned horizon is the retention watermark — versions at or
//     below it can never be needed again and are pruned eagerly.
//
//   - AddrMap: the kernel-side version map. The embedded transaction
//     manager commits by flushing through the no-overwrite LFS, so the
//     pre-commit version of every page it rewrites survives on disk at its
//     old segment address. Each commit batch is an epoch; a record
//     (page, epoch E, addr A) means "page's content *before* the epoch-E
//     commit lives at disk address A". The newest version at-or-before
//     horizon H is therefore the record with the smallest epoch > H, or the
//     current on-disk page when no such record exists. The set of retained
//     addresses doubles as the cleaner's retention horizon: segments
//     containing a retained address may not be reclaimed.
//
//   - DeltaMap: the user-side version map. LIBTP's WAL already carries a
//     before-image for every page write, so old versions are reconstructed
//     in memory by applying before-deltas of all updates that committed
//     after the horizon (or not at all) in reverse log order — the log as
//     the version repository, no disk retention required.
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
// an unbalanced release would silently unblock the cleaner while a snapshot
// still reads through it.
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

// Oldest returns the oldest pinned horizon — the retention watermark — and
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

// version is one kernel-side record: the page's content before the epoch-E
// commit lives at disk address Addr (0 = the page did not exist yet).
type version struct {
	epoch int64
	addr  int64
}

// AddrMap maps (page, horizon) to the disk address holding the page's
// newest version at-or-before the horizon. Records for a page carry
// strictly increasing epochs (one commit batch per epoch), so each chain is
// sorted by construction.
type AddrMap struct {
	pages map[PageID][]version
	addrs map[int64]int // refcount of retained non-zero disk addresses
}

// NewAddrMap returns an empty version map.
func NewAddrMap() *AddrMap {
	return &AddrMap{
		pages: make(map[PageID][]version),
		addrs: make(map[int64]int),
	}
}

// Record notes that page id's content before the epoch-E commit lives at
// disk address addr (0 = the page was a hole). Epochs must be recorded in
// increasing order per page; Record panics otherwise, because an unsorted
// chain would silently corrupt AddrAt's binary search.
func (m *AddrMap) Record(id PageID, epoch, addr int64) {
	vs := m.pages[id]
	if len(vs) > 0 && vs[len(vs)-1].epoch >= epoch {
		panic("mvcc: AddrMap.Record epochs must increase per page")
	}
	m.pages[id] = append(vs, version{epoch: epoch, addr: addr})
	if addr != 0 {
		m.addrs[addr]++
	}
}

// AddrAt returns the disk address of page id's newest version at-or-before
// horizon h. The second result is false when the page has not been
// committed-over since h, i.e. the current on-disk page already is the
// snapshot's version. An address of 0 with ok=true means the page did not
// exist at the horizon (read as zeroes).
//
//simlint:noalloc
func (m *AddrMap) AddrAt(id PageID, h int64) (int64, bool) {
	vs := m.pages[id]
	// First record with epoch > h: its address is the content at h.
	lo, hi := 0, len(vs)
	for lo < hi {
		mid := (lo + hi) / 2
		if vs[mid].epoch > h {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(vs) {
		return 0, false
	}
	return vs[lo].addr, true
}

// RetainsRange reports whether any retained version address falls in
// [lo, hi). The LFS cleaner calls it per victim candidate with the
// segment's block-address range; a true answer vetoes reclaiming the
// segment while a pinned snapshot may still read through it.
//
//simlint:noalloc
func (m *AddrMap) RetainsRange(lo, hi int64) bool {
	if len(m.addrs) == 0 {
		return false
	}
	//simlint:ordered pure existence predicate: any iteration order yields the same answer
	for a := range m.addrs {
		if lo <= a && a < hi {
			return true
		}
	}
	return false
}

// RetainedBlocks returns the number of distinct disk addresses currently
// retained for snapshots.
//
//simlint:noalloc
func (m *AddrMap) RetainedBlocks() int64 {
	return int64(len(m.addrs))
}

// Prune drops every version that no pinned snapshot can ever need: records
// with epoch <= oldest (a snapshot at horizon H needs a record only when
// H < its epoch), or all records when active is false. Called with the new
// watermark whenever a snapshot closes.
func (m *AddrMap) Prune(oldest int64, active bool) {
	//simlint:ordered per-entry trim: each chain is filtered independently, no cross-entry order observable
	for id, vs := range m.pages {
		keep := 0
		if active {
			// Chains are epoch-sorted: the dropped records are a prefix.
			for keep < len(vs) && vs[keep].epoch <= oldest {
				keep++
			}
		} else {
			keep = len(vs)
		}
		if keep == 0 {
			continue
		}
		for _, v := range vs[:keep] {
			if v.addr != 0 {
				m.releaseAddrLocked(v.addr)
			}
		}
		if keep == len(vs) {
			delete(m.pages, id)
		} else {
			m.pages[id] = vs[keep:]
		}
	}
}

func (m *AddrMap) releaseAddrLocked(addr int64) {
	c := m.addrs[addr]
	if c <= 1 {
		delete(m.addrs, addr)
	} else {
		m.addrs[addr] = c - 1
	}
}

// delta is one user-side record: byte range [off, off+len(before)) of a
// page held before by the write of transaction txn; commit is the
// transaction's commit LSN, or 0 while it is still in flight.
type delta struct {
	txn    uint64
	commit int64
	off    uint32
	before []byte
}

// DeltaMap reconstructs user-side page versions from WAL before-images.
// Per-page chains are kept in log order; reconstructing a page at horizon H
// applies, newest first, the before-image of every delta whose transaction
// committed after H or not at all.
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
// before is retained (not copied): callers pass the same immutable slice
// they log to the WAL and keep for undo.
func (d *DeltaMap) Record(id PageID, txn uint64, off uint32, before []byte) {
	d.pages[id] = append(d.pages[id], delta{txn: txn, off: off, before: before})
	d.byTxn[txn] = append(d.byTxn[txn], id)
	d.bytes += int64(len(before))
}

// Commit stamps every delta of txn with its commit LSN, making the deltas
// visible as "changed after horizon H" for all H < lsn. With keep=false
// (no pinned snapshot predates the commit) the deltas are discarded
// instead — nothing can ever need them.
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
