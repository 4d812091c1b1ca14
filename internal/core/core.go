// Package core implements the paper's primary contribution: a transaction
// manager embedded in the log-structured file system (Figure 3).
//
// Transaction-protection is an attribute of a file; the interface to
// protected files is identical to unprotected ones (open, close, read,
// write) plus three new "system calls" — TxnBegin, TxnCommit, TxnAbort —
// which have no effect on unprotected files. The kernel's buffer cache
// replaces the user-level buffer pool, the kernel scheduler replaces
// user-level process management, and no explicit logging is performed:
//
//   - LFS's no-overwrite policy guarantees before-images (the old versions
//     of updated pages remain in the log until cleaned), and
//   - forcing every page the committing transactions dirtied guarantees
//     after-images. The paper writes each page whole; here the force writes
//     only the bytes that changed when they fit one summary block
//     (lfs.FS.FlushCommit), and the pages follow whole by write-behind.
//
// Therefore the only machinery added to the "kernel" is lock management and
// transaction management (§4): a lock table keyed by (file, block), a
// per-transaction state with its lock chain, per-inode lists of
// transaction-protected buffers (modelled by buffer holds), and group
// commit.
//
// Commit is a pre-commit: the transaction releases its locks at once and
// sleeps until the batch it joined is in the log, so later transactions can
// read and write pages that carry pre-committed bytes. Two invariants keep
// that safe. A batch flush takes every pre-committed transaction, in
// pre-commit order, as one atomic partial-segment stream, so a transaction
// never becomes durable ahead of one it depends on. And every write records
// an in-memory before-image first, which serves both abort (undone in place)
// and the flush (a page a running transaction has since written is logged
// from a scratch copy with that transaction's bytes backed out), so the log
// never receives an uncommitted byte.
//
// Copies of the same before-images are the version store of read-only
// snapshots (snapshot.go), as LIBTP's are: no old version is read from the
// log, so the file system, its cleaner included, knows nothing of snapshots.
package core

import (
	"errors"
	"time"

	"repro/internal/buffer"
	"repro/internal/detsort"
	"repro/internal/frame"
	"repro/internal/lfs"
	"repro/internal/lock"
	"repro/internal/mvcc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Errors.
var (
	ErrNoTxn     = errors.New("core: no transaction active for this process")
	ErrTxnActive = errors.New("core: process already has an active transaction")
	ErrDeadlock  = lock.ErrDeadlock
)

// checkCost is the per-access cost non-transaction applications pay on a
// transaction-enabled kernel: "a few instructions in accessing buffers to
// determine that transaction locks are unnecessary" (§5.2).
const checkCost = 500 * time.Nanosecond

// Options configures the embedded transaction manager.
type Options struct {
	// Costs is the CPU cost model (default sim.SpriteCosts()).
	Costs sim.CostModel
	// GroupCommit is how many concurrent committers share one commit flush
	// (default 1 = every commit flushes); a commit is durable when it
	// returns at any setting. The paper's "the process sleeps ... until
	// sufficiently more transactions have committed to justify the write"
	// (§4.4).
	GroupCommit int
	// Granularity selects page or sub-page locking (default Page, the
	// paper's measured configuration; see Granularity).
	Granularity Granularity
	// Tracer, when non-nil, is wired through the lock table and emits
	// transaction and commit-flush events. The file system's own tracer
	// (disk, cleaner, checkpoint events) is attached separately via
	// lfs.FS.SetTracer. A nil tracer costs nothing.
	Tracer *trace.Tracer
}

// Stats counts transaction-manager activity.
type Stats struct {
	Begun        int64 `json:"begun"`
	Committed    int64 `json:"committed"`
	Aborted      int64 `json:"aborted"`
	CommitFlush  int64 `json:"commit_flushes"` // commit-time flush operations (group commits count once)
	PagesFlushed int64 `json:"pages_flushed"`  // distinct pages written by commit flushes (a batch's union)
	BytesFlushed int64 `json:"bytes_flushed"`  // whole pages × block size: §4.3's commit cost, whatever the force wrote
	Deadlocks    int64 `json:"deadlocks"`
	// Snapshots counts read-only snapshot transactions (BeginSnapshot);
	// VersionsRecorded counts the before-image deltas kept for pinned
	// snapshots.
	Snapshots        int64 `json:"snapshots"`
	VersionsRecorded int64 `json:"versions_recorded"`
}

// Manager is the embedded transaction manager: the paper's additions to the
// file system state (lock table pointer) and the transaction subsystem. It has
// no lock of its own: it must be used from proc context, or from the main
// goroutine while no scheduler runs.
type Manager struct {
	fs     *lfs.FS
	clock  *sim.Clock
	costs  sim.CostModel
	locks  *lock.Manager
	opts   Options
	tracer *trace.Tracer // from Options.Tracer; nil = tracing off
	// Metric handles resolved at construction; nil handles are free.
	ctrCommits, ctrAborts, ctrFlushes *trace.Counter
	histLatency                       *trace.Hist

	nextTxn uint64
	// held tracks every buffer on transaction hold: who is still writing it
	// and whose pre-committed bytes it carries.
	held map[buffer.BlockID]*heldPage
	// pending are the pre-committed transactions, in pre-commit order: the
	// page source of the next commit flush. Their committers wait in commits,
	// the group-commit rendezvous (§4.4), which calls writeBatchLocked.
	pending []*Txn
	commits *sim.Batch
	// frames hold the whole-page scratch the manager needs: every running
	// transaction's before-images, given back when its undo is dropped, and a
	// batch flush's committed images, given back when the flush returns.
	frames frame.List
	stats  Stats

	// Snapshot (multiversion read) support. commitSeq is the commit epoch —
	// one increment per commit flush, and per degree-1 write made while a
	// snapshot is pinned (its own commit point); snapshots pin it as their
	// horizon. vers holds, only while a snapshot is pinned, a copy of the
	// before-image of every write a pinned snapshot may have to rewind,
	// stamped with its commit epoch; snaps refcounts the pinned horizons.
	commitSeq int64
	vers      *mvcc.DeltaMap
	snaps     *mvcc.Horizons
}

// New attaches a transaction manager to a mounted log-structured file
// system.
func New(fsys *lfs.FS, clock *sim.Clock, opts Options) *Manager {
	if opts.Costs == (sim.CostModel{}) {
		opts.Costs = sim.SpriteCosts()
	}
	if opts.GroupCommit < 1 {
		opts.GroupCommit = 1
	}
	m := &Manager{
		fs:     fsys,
		clock:  clock,
		costs:  opts.Costs,
		locks:  lock.NewManager(),
		opts:   opts,
		tracer: opts.Tracer,
		held:   make(map[buffer.BlockID]*heldPage),
		frames: frame.NewList(fsys.BlockSize()),
		vers:   mvcc.NewDeltaMap(),
		snaps:  mvcc.NewHorizons(),
	}
	m.ctrCommits = opts.Tracer.Counter("txn.commits")
	m.ctrAborts = opts.Tracer.Counter("txn.aborts")
	m.ctrFlushes = opts.Tracer.Counter("core.commitFlushes")
	m.histLatency = opts.Tracer.Hist("txn.latency")
	m.locks.SetClock(clock)
	m.locks.SetTracer(opts.Tracer)
	m.commits = sim.NewBatch(clock, opts.GroupCommit, m.writeBatchLocked, opts.Tracer.CommitWait())
	return m
}

// FS returns the underlying file system.
func (m *Manager) FS() *lfs.FS { return m.fs }

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats { return m.stats }

// LockStats exposes the lock table counters.
func (m *Manager) LockStats() lock.Stats { return m.locks.Stats() }

// Protect turns transaction-protection on for a file — the paper's
// "provided utility".
func (m *Manager) Protect(path string) error {
	return m.fs.SetTxnProtected(path, true)
}

// Process models the per-process state the paper extends with a pointer to
// the transaction state: each process has at most one active transaction
// (implementation restriction 4), and transactions may not span processes
// (restriction 3).
type Process struct {
	m   *Manager
	txn *Txn
}

// NewProcess creates a process context.
func (m *Manager) NewProcess() *Process { return &Process{m: m} }

// Txn is the per-transaction state: status, the lock chain (kept in the
// lock manager, traversable by transaction), the transaction identifier,
// and the pages the transaction dirtied (the per-inode transaction buffer
// lists, §4.1).
type Txn struct {
	id     uint64
	proc   *Process
	pages  map[buffer.BlockID]bool
	status txnStatus
	start  time.Duration // simulated begin time, for the whole-txn trace span
	// undo holds the before-image of every byte range the transaction
	// wrote, in write order (see captureUndo).
	undo []undoRange
}

type txnStatus uint8

const (
	txnRunning txnStatus = iota
	txnCommitting
	txnDone
)

// ID returns the transaction identifier.
func (t *Txn) ID() uint64 { return t.id }

// TxnBegin starts a transaction for the process (the txn_begin system
// call): allocate/initialize the transaction state, assign the next
// transaction identifier, initialize the lock list.
func (p *Process) TxnBegin() error {
	if p.txn != nil && p.txn.status == txnRunning {
		return ErrTxnActive
	}
	m := p.m
	start := m.clock.Now()
	m.clock.Advance(m.costs.Syscall + m.costs.TxnOp)
	m.nextTxn++
	p.txn = &Txn{
		id:    m.nextTxn,
		proc:  p,
		pages: make(map[buffer.BlockID]bool),
		start: start,
	}
	m.stats.Begun++
	m.tracer.Instant("txn", "txn.begin", trace.AU("txn", p.txn.id))
	return nil
}

// TxnCommit commits the process's transaction (txn_commit) as a pre-commit:
// the transaction joins the group-commit batch and releases its locks at
// once — batches reach the log whole and in pre-commit order, so no
// transaction that builds on these bytes can become durable first — while
// its dirty buffers stay on hold (no-steal is unchanged). The process then
// sleeps until the batch is in the log: TxnCommit returns only for a durable
// transaction.
func (p *Process) TxnCommit() error {
	if p.txn == nil || p.txn.status != txnRunning {
		return ErrNoTxn
	}
	m := p.m
	m.clock.Advance(m.costs.Syscall + m.costs.TxnOp)
	t := p.txn
	p.txn = nil
	t.status = txnCommitting
	//simlint:ordered per-page bookkeeping only; no page's update depends on another's
	for id := range t.pages {
		hp := m.held[id]
		hp.dropWriter(t)
		hp.pending++
		hp.baseDirty = true
	}
	m.pending = append(m.pending, t)
	m.locks.ReleaseAll(lock.TxnID(t.id))
	if _, err := m.commits.Join(); err != nil {
		return err
	}
	m.clock.Advance(m.costs.KernelSync())
	if m.tracer.Enabled() {
		m.tracer.Complete("txn", "txn", t.start, trace.AU("txn", t.id), trace.AS("outcome", "commit"))
		m.histLatency.Observe(m.clock.Now() - t.start)
		m.ctrCommits.Add(1)
	}
	return nil
}

// writeBatchLocked forces the batch's page set — the union of the pending
// transactions' write sets, nothing else that is on hold — to the log
// atomically, then drops the batch's holds. A page that a running transaction
// has written since is forced from its committed image and stays dirty and
// held for that writer. A page whose committed bytes went to the log as
// patches stays dirty too (lfs.FS.Patched): its logged copy lacks them, so
// an abort must not mark it clean. The holds are released only
// AFTER the flush succeeds: any cleaner pass the flush triggers on entry
// still sees the pages as held, so it relocates the on-disk before-images
// instead of stealing unflushed contents into the log ahead of the batch.
//
//simlint:alloc(per-batch flush: group commit amortizes its bookkeeping over the batch, not per page access)
func (m *Manager) writeBatchLocked() error {
	span := m.tracer.Begin("txn", "core.commitFlush")
	set := make(map[buffer.BlockID]bool)
	for _, t := range m.pending {
		//simlint:ordered set union; the sorted key list below fixes the order
		for id := range t.pages {
			set[id] = true
		}
	}
	ids := detsort.KeysFunc(set, buffer.CompareBlockID)
	pages := make([]lfs.CommitPage, len(ids))
	for i, id := range ids {
		pages[i] = lfs.CommitPage{ID: id, Image: m.committedImageLocked(id)}
	}
	err := m.fs.FlushCommit(pages)
	for _, p := range pages {
		if p.Image != nil {
			m.frames.Give(p.Image) // the flush copied it to the device or gave up
		}
	}
	if err != nil {
		return err
	}
	m.commitSeq++
	for _, id := range ids {
		hp := m.held[id]
		hp.pending = 0
		hp.baseDirty = m.fs.Patched(id)
		if len(hp.writers) == 0 {
			m.unholdLocked(id)
		}
	}
	for _, t := range m.pending {
		t.status = txnDone
		m.dropUndoLocked(t)
		// Every pinned horizon predates this epoch.
		m.vers.Commit(t.id, m.commitSeq, m.snaps.Active())
	}
	m.stats.Committed += int64(len(m.pending))
	m.stats.CommitFlush++
	m.stats.PagesFlushed += int64(len(ids))
	m.stats.BytesFlushed += int64(len(ids)) * int64(m.fs.BlockSize())
	if m.tracer.Enabled() {
		span.End(trace.AI("txns", int64(len(m.pending))), trace.AI("pages", int64(len(ids))))
		m.ctrFlushes.Add(1)
	}
	m.pending = m.pending[:0]
	return nil
}

// Flush forces any pending group commit immediately, waking its sleeping
// committers (the timeout arm of §4.4's group commit, for callers outside
// the scheduler).
func (m *Manager) Flush() error {
	if len(m.pending) == 0 {
		return nil
	}
	return m.commits.Flush()
}

// TxnAbort aborts the process's transaction (txn_abort): roll every written
// byte range back in place from its before-image, drop the transaction's
// holds, and release its locks. The pages stay cached — they may carry other
// transactions' pre-committed bytes, which an invalidate-and-re-read from the
// log would lose.
func (p *Process) TxnAbort() error {
	if p.txn == nil || p.txn.status != txnRunning {
		return ErrNoTxn
	}
	m := p.m
	m.clock.Advance(m.costs.Syscall + m.costs.TxnOp)
	t := p.txn
	if err := m.applyUndoLocked(t); err != nil {
		return err
	}
	pool := m.fs.Pool()
	for _, id := range detsort.KeysFunc(t.pages, buffer.CompareBlockID) {
		hp := m.held[id]
		hp.dropWriter(t)
		if len(hp.writers) == 0 && hp.pending == 0 {
			if !hp.baseDirty {
				// Back to the image the log holds.
				pool.MarkClean(pool.Lookup(id))
			}
			m.unholdLocked(id)
		}
	}
	m.locks.ReleaseAll(lock.TxnID(t.id))
	m.clock.Advance(m.costs.KernelSync())
	t.status = txnDone
	m.dropUndoLocked(t)
	m.vers.Abort(t.id)
	p.txn = nil
	m.stats.Aborted++
	if m.tracer.Enabled() {
		m.tracer.Complete("txn", "txn", t.start, trace.AU("txn", t.id), trace.AS("outcome", "abort"))
		m.ctrAborts.Add(1)
	}
	return nil
}

// abortOnDeadlock is invoked when a lock request deadlocks: the transaction
// is aborted and the error surfaced to the caller.
// abortOnDeadlock rolls back the deadlock victim's transaction.
//
//simlint:alloc(cold deadlock victim path: the rollback allocates by design)
func (p *Process) abortOnDeadlock() {
	p.m.stats.Deadlocks++
	p.m.locks.NoteDeadlockAbort()
	_ = p.TxnAbort()
}

// InTxn reports whether the process has an active transaction.
func (p *Process) InTxn() bool { return p.txn != nil && p.txn.status == txnRunning }
