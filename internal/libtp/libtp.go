// Package libtp implements the user-level transaction system of the paper's
// Figure 2, modelled on the LIBTP library [15]: a record-oriented interface
// (B-tree, hash, fixed-length records via the pagestore adapter) layered
// over a user-level buffer manager, a general-purpose two-phase lock
// manager, and a write-ahead log manager. Transactions begin, commit and
// abort through a subroutine interface; commit forces the log (concurrent
// committers share a force: group commit); abort applies in-memory
// before-images; crash recovery replays the log with redo for winners and
// undo for losers.
//
// Synchronization cost: every lock-manager call is charged
// CostModel.UserSync() of simulated time. On the paper's DECstation — no
// hardware test-and-set — user-level semaphores cost two system calls,
// which is precisely what made the user-level system slightly slower than
// the kernel-embedded one (§5.1). Configure sim.FastSyncCosts() to model
// fast user-level mutual exclusion [1] and watch the gap close.
package libtp

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/buffer"
	"repro/internal/detsort"
	"repro/internal/lock"
	"repro/internal/mvcc"
	"repro/internal/pagestore"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// Errors.
var (
	ErrTxnDone   = errors.New("libtp: transaction already finished")
	ErrTxnActive = errors.New("libtp: operation requires no active transactions")
)

// Options configures an environment.
type Options struct {
	// CacheBlocks is the user-level buffer pool capacity in pages
	// (default 512).
	CacheBlocks int
	// Costs is the CPU cost model (default sim.SpriteCosts()).
	Costs sim.CostModel
	// GroupCommit is how many concurrent committers share one log force
	// (default 1 = every commit forces); a commit is durable when it
	// returns at any setting.
	GroupCommit int
	// LogSegmentBytes is the log rotation threshold (0 = the wal default).
	LogSegmentBytes int64
	// Tracer, when non-nil, is wired through the environment's buffer pool,
	// lock manager, and log manager, and transaction begin/commit/abort emit
	// events with commit-wait attribution.
	Tracer *trace.Tracer
}

func (o *Options) fill() {
	if o.CacheBlocks == 0 {
		o.CacheBlocks = 512
	}
	if o.Costs == (sim.CostModel{}) {
		o.Costs = sim.SpriteCosts()
	}
	if o.GroupCommit == 0 {
		o.GroupCommit = 1
	}
}

// logPath is the write-ahead log's base path: the log manager materializes
// rotated {logPath}.{seq}.txnlog segments and a {logPath}.ckpt checkpoint
// anchor next to it.
const logPath = "/libtp.log"

// Stats counts environment activity.
type Stats struct {
	Begun     int64 `json:"begun"`
	Committed int64 `json:"committed"`
	Aborted   int64 `json:"aborted"`
	PageReads int64 `json:"page_reads"`
	PageWrite int64 `json:"page_writes"`
	// SnapshotsBegun counts read-only snapshot transactions (BeginSnapshot);
	// their lock-free page reads land in PageReads like any other read.
	SnapshotsBegun int64 `json:"snapshots_begun"`
	// WriteBackForces counts dirty-page write-backs that had to force the log
	// first (the page's last record was not yet durable); WriteBackSkips those
	// that found it durable already and forced nothing.
	WriteBackForces int64 `json:"write_back_forces"`
	WriteBackSkips  int64 `json:"write_back_skips"`
}

// undoRec is an in-memory before-image for abort processing.
type undoRec struct {
	db     uint64
	page   int64
	offset uint32
	before []byte
}

// Env is a user-level transaction environment bound to one file system. It has
// no lock of its own: it must be used from proc context, or from the main
// goroutine while no scheduler runs.
type Env struct {
	fs    vfs.FileSystem
	clock *sim.Clock
	costs sim.CostModel
	pool  *buffer.Pool
	locks *lock.Manager
	log   *wal.Manager
	opts  Options

	files   map[uint64]vfs.File // db id (inode) → open file
	nextTxn uint64
	active  map[uint64]bool
	undo    map[uint64][]undoRec
	// Snapshot (multiversion read) support: vers holds the pinned commit
	// horizons (log positions) and the per-page before-image chains that
	// reconstruct older page versions. Deltas are recorded only while a
	// snapshot is pinned; the rest of the time the store is empty.
	vers *mvcc.Versions
	// pageEnd holds, for each dirty pool page, the log's end just after the
	// last record that changed it: the point the log must be durable through
	// before the page may reach its file (the WAL rule, per page).
	pageEnd map[buffer.BlockID]wal.LSN
	stats   Stats
	tracer  *trace.Tracer // from Options.Tracer; nil = tracing off
	// Metric handle resolved at construction; a nil handle is free.
	histLatency *trace.Hist

	// commits is the group-commit rendezvous (§4.4): a committer that has
	// appended its commit record joins it and shares one log.Force with the
	// rest of the batch.
	commits *sim.Batch
}

// newEnvShell builds the in-memory skeleton NewEnv and RecoverPaths share:
// pool, lock manager, metric handles. The log is not opened yet.
func newEnvShell(fsys vfs.FileSystem, clock *sim.Clock, opts Options) *Env {
	env := &Env{
		fs:      fsys,
		clock:   clock,
		costs:   opts.Costs,
		locks:   lock.NewManager(),
		opts:    opts,
		files:   make(map[uint64]vfs.File),
		active:  make(map[uint64]bool),
		undo:    make(map[uint64][]undoRec),
		vers:    mvcc.New(opts.Tracer.Metrics()),
		tracer:  opts.Tracer,
		pageEnd: make(map[buffer.BlockID]wal.LSN, opts.CacheBlocks),
	}
	env.pool = buffer.New(opts.CacheBlocks, fsys.BlockSize(), env.writeback)
	env.pool.SetClock(clock)
	env.pool.SetTracer(opts.Tracer, "buffer.user")
	env.locks.SetTracer(opts.Tracer)
	env.histLatency = opts.Tracer.Hist("txn.latency")
	return env
}

// start makes an environment whose log is open ready for transactions.
func (e *Env) start() {
	e.locks.SetClock(e.clock)
	e.commits = sim.NewBatch(e.clock, e.opts.GroupCommit, e.log.Force, e.tracer.CommitWait())
}

// NewEnv creates (or reopens) a transaction environment on fsys. The log
// file is created if absent; if it exists, recovery is run before the
// environment is usable.
func NewEnv(fsys vfs.FileSystem, clock *sim.Clock, opts Options) (*Env, error) {
	opts.fill()
	env := newEnvShell(fsys, clock, opts)

	walOpts := wal.Options{SegmentBytes: opts.LogSegmentBytes}
	if !wal.Exists(fsys, logPath) {
		lg, err := wal.Create(fsys, logPath, walOpts)
		if err != nil {
			return nil, err
		}
		env.log = lg
	} else {
		lg, err := wal.Open(fsys, logPath, walOpts)
		if err != nil {
			return nil, err
		}
		recs, err := lg.Scan()
		if err != nil {
			return nil, err
		}
		// A checkpoint record at the tail is the normal resting state of a
		// cleanly checkpointed log; anything else needs recovery.
		for _, r := range recs {
			if r.Type != wal.RecCheckpoint {
				return nil, errors.New("libtp: log contains records; recover with RecoverPaths")
			}
		}
		env.log = lg
	}
	env.log.SetTracer(opts.Tracer)
	env.start()
	return env, nil
}

// FS returns the underlying file system.
func (e *Env) FS() vfs.FileSystem { return e.fs }

// LogPath returns the write-ahead log's base path (segments and the
// checkpoint anchor are materialized next to it).
func (e *Env) LogPath() string { return logPath }

// Stats returns a snapshot of the counters.
func (e *Env) Stats() Stats {
	return e.stats
}

// LockStats exposes the lock manager counters.
func (e *Env) LockStats() lock.Stats { return e.locks.Stats() }

// LogStats exposes the log manager counters.
func (e *Env) LogStats() wal.Stats { return e.log.Stats() }

// PoolStats exposes the user-level buffer pool's counters.
func (e *Env) PoolStats() buffer.Stats { return e.pool.Stats() }

// writeback persists an evicted dirty page, honouring the WAL rule per page:
// the log is forced before the page goes to the database file only if it is
// not yet durable through the page's last record — as ARIES and Berkeley DB's
// mpool flush the log to the page's LSN. A page no record names is covered by
// the whole log. The write() into the kernel costs a system call plus the
// copyin of the whole page (the WAL's own appends move only record-sized
// deltas and are charged by the log manager).
func (e *Env) writeback(id buffer.BlockID, data []byte) error {
	end, ok := e.pageEnd[id]
	if !ok {
		end = e.log.End()
	}
	if e.log.DurableThrough(end) {
		e.stats.WriteBackSkips++
	} else {
		e.stats.WriteBackForces++
		if err := e.log.Force(); err != nil {
			return err
		}
	}
	delete(e.pageEnd, id)
	e.clock.Advance(e.costs.Syscall + e.costs.PageCopy)
	f, ok := e.files[uint64(id.File)]
	if !ok {
		return fmt.Errorf("libtp: writeback for unknown db %d", id.File)
	}
	_, err := f.WriteAt(data, id.Block*int64(e.pool.BlockSize()))
	return err
}

// loggedLocked records that the log's last record changed b, now dirty: the
// page may not be written back before the log is durable through it.
func (e *Env) loggedLocked(b *buffer.Buf) {
	e.pool.MarkDirty(b)
	e.pageEnd[b.ID] = e.log.End()
}

// OpenDB opens (or creates) a database file. The returned DB is shared: all
// transactions address it through their own transactional page stores.
func (e *Env) OpenDB(path string) (*DB, error) {
	f, err := e.fs.Open(path)
	if errors.Is(err, vfs.ErrNotExist) {
		f, err = e.fs.Create(path)
		if err == nil {
			// Make the new database's directory entry durable so crash
			// recovery can find the file by path.
			err = e.fs.Sync()
		}
	}
	if err != nil {
		return nil, err
	}
	db := &DB{env: e, f: f, id: uint64(f.ID())}
	e.files[db.id] = f
	return db, nil
}

// DB is an open database file.
type DB struct {
	env *Env
	f   vfs.File
	id  uint64
}

// ID returns the database's identity (its inode number).
func (db *DB) ID() uint64 { return db.id }

// Path-free page count (used by the store adapter).
func (db *DB) numPages() (int64, error) {
	sz, err := db.f.Size()
	if err != nil {
		return 0, err
	}
	ps := int64(db.env.pool.BlockSize())
	return (sz + ps - 1) / ps, nil
}

// Begin starts a transaction ("txn_begin").
func (e *Env) Begin() *Txn {
	e.nextTxn++
	id := e.nextTxn
	e.active[id] = true
	e.stats.Begun++
	start := e.clock.Now()
	e.clock.Advance(e.costs.TxnOp + e.costs.Syscall) // subroutine + the syscalls it makes
	e.tracer.Instant("txn", "txn.begin", trace.AU("txn", id))
	return &Txn{env: e, id: id, start: start}
}

// Txn is an active transaction.
type Txn struct {
	env   *Env
	id    uint64
	start time.Duration // simulated Begin time, for the whole-txn trace span
	done  bool
}

// ID returns the transaction identifier.
func (t *Txn) ID() uint64 { return t.id }

// Store returns the transactional page store for db: every page read takes
// a read lock, every page write takes a write lock and logs before/after
// images. Access methods (btree.Open, recno.Open, ...) plug in directly.
func (t *Txn) Store(db *DB) pagestore.Store {
	return &txnStore{t: t, db: db}
}

// Commit makes the transaction durable ("txn_commit") as a pre-commit: append
// the commit record and release every lock at once — commit order is fixed by
// log order, and a dependent transaction's commit record lands later in the
// same log, so it can never become durable first; holding locks across the
// wait would serialize the very concurrency group commit needs — then join
// the group-commit batch and return once its force has covered the record.
// Dirty pages remain cached (no-force policy) and reach the database file on
// eviction or checkpoint, after the log.
//
// If the force fails, Commit returns its error with the transaction finished
// (locks released, Abort answers ErrTxnDone) but in doubt: its commit record is
// appended, so a later successful force makes it durable.
func (t *Txn) Commit() error {
	if err := t.end(); err != nil {
		return err
	}
	return t.finishLocked(true, t.commitLocked())
}

// commitLocked appends t's commit record, releases its locks and waits for
// the batch's force.
func (t *Txn) commitLocked() error {
	e := t.env
	if _, err := e.log.AppendCommit(t.id); err != nil {
		return err
	}
	// A snapshot sees the commit iff it pins past the commit record.
	e.vers.Commit(t.id, int64(e.log.End()))
	// No rollback can reach t now, and a snapshot pinned from here on sees
	// it: its undo must not seed the version store at the next first pin.
	delete(e.undo, t.id)
	e.locks.ReleaseAll(lock.TxnID(t.id))
	return e.forceSharedLocked()
}

// end is the prologue of every call that finishes t — Commit, Abort: mark it
// done and charge the subroutine and the system
// calls it makes.
func (t *Txn) end() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	t.env.clock.Advance(t.env.costs.TxnOp + t.env.costs.Syscall)
	return nil
}

// finishLocked is their epilogue, run on every exit: whatever err says, no
// lock stays held and the transaction's bookkeeping is dropped — one failed
// force must not wedge Checkpoint behind a transaction nobody can finish.
// Only a clean exit is counted and traced.
func (t *Txn) finishLocked(commit bool, err error) error {
	e := t.env
	if err != nil {
		e.locks.ReleaseAll(lock.TxnID(t.id)) // whatever the failed step had not released
	}
	e.clock.Advance(e.costs.UserSync())
	delete(e.active, t.id)
	delete(e.undo, t.id)
	if err != nil {
		return err
	}
	outcome, n := "abort", &e.stats.Aborted
	if commit {
		outcome, n = "commit", &e.stats.Committed
	}
	*n++
	if e.tracer.Enabled() {
		e.tracer.Complete("txn", "txn", t.start, trace.AU("txn", t.id), trace.AS("outcome", outcome))
		if commit {
			e.histLatency.Observe(e.clock.Now() - t.start)
		}
	}
	return nil
}

// forceSharedLocked returns once a log force has covered everything the
// caller appended: the caller's own, at once, when the batch is full or no
// other client could join it, otherwise another member's (§4.4; sim.Batch).
//
//simlint:noalloc
func (e *Env) forceSharedLocked() error {
	slept, err := e.commits.Join()
	if slept {
		e.log.NoteAbsorbed()
	}
	return err
}

// Abort rolls the transaction back ("txn_abort"): apply before-images in
// reverse order to the cached pages, log the abort, release locks. An abort
// that fails part-way still finishes the transaction; the log holds no commit
// record for it, so restart recovery completes the rollback.
func (t *Txn) Abort() error {
	if err := t.end(); err != nil {
		return err
	}
	return t.finishLocked(false, t.abortLocked())
}

// abortLocked undoes t's updates in the cache and the log and releases its
// locks.
func (t *Txn) abortLocked() error {
	e := t.env
	undos := e.undo[t.id]
	for i := len(undos) - 1; i >= 0; i-- {
		u := undos[i]
		// Read the bytes being rolled over so the compensation record
		// carries a correct (if unused) before-image.
		cur, err := e.peekLocked(u.db, u.page, u.offset, len(u.before))
		if err != nil {
			return err
		}
		// Compensation log record: replaying it at recovery re-performs
		// the rollback in log order.
		if _, err := e.log.LogUpdate(t.id, u.db, u.page, u.offset, cur, u.before); err != nil {
			return err
		}
		if err := e.applyLocked(u.db, u.page, u.offset, u.before); err != nil {
			return err
		}
	}
	if _, err := e.log.LogAbort(t.id); err != nil {
		return err
	}
	// The rollback above restored every page byte the transaction touched,
	// so its version deltas must vanish: the chains now read as if the
	// transaction never wrote.
	e.vers.Abort(t.id)
	e.locks.ReleaseAll(lock.TxnID(t.id))
	return nil
}

// peekLocked reads a byte range from a cached database page.
func (e *Env) peekLocked(db uint64, page int64, offset uint32, n int) ([]byte, error) {
	f, ok := e.files[db]
	if !ok {
		return nil, fmt.Errorf("libtp: unknown db %d", db)
	}
	id := buffer.BlockID{File: vfs.FileID(db), Block: page}
	b, err := e.pool.Get(id, func(_ buffer.BlockID, dst []byte) error {
		return readPage(f, page, dst)
	})
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), b.Data[offset:int(offset)+n]...)
	e.pool.Release(b)
	return out, nil
}

// applyLocked writes a byte range into a cached database page.
func (e *Env) applyLocked(db uint64, page int64, offset uint32, data []byte) error {
	f, ok := e.files[db]
	if !ok {
		return fmt.Errorf("libtp: unknown db %d", db)
	}
	id := buffer.BlockID{File: vfs.FileID(db), Block: page}
	b, err := e.pool.GetForWrite(id, func(_ buffer.BlockID, dst []byte) error {
		return readPage(f, page, dst)
	})
	if err != nil {
		return err
	}
	copy(b.Data[offset:], data)
	e.loggedLocked(b)
	e.pool.Release(b)
	return nil
}

// Checkpoint flushes all dirty pages (log first — WAL rule), then writes a
// checkpoint record; the log manager anchors it and truncates the dead
// segments below the new low-water mark. It requires quiescence.
func (e *Env) Checkpoint() error {
	if len(e.active) != 0 {
		return ErrTxnActive
	}
	if err := e.log.Force(); err != nil {
		return err
	}
	if err := e.pool.FlushAll(); err != nil {
		return err
	}
	for _, id := range detsort.Keys(e.files) {
		if err := e.files[id].Sync(); err != nil {
			return err
		}
	}
	_, err := e.log.LogCheckpoint()
	return err
}

// applyRecovery writes one recovered byte range into its database file.
func (e *Env) applyRecovery(file uint64, block int64, offset uint32, data []byte) error {
	f, ok := e.files[file]
	if !ok {
		return fmt.Errorf("libtp: recovery update for unopened database %d; pass its path to RecoverPaths", file)
	}
	_, err := f.WriteAt(data, block*int64(e.pool.BlockSize())+int64(offset))
	return err
}

// RecoverPaths reopens an environment whose databases live at the given
// paths, running recovery with every database available: it opens the log,
// scans it from its last checkpoint, replays it, syncs the recovered
// databases and checkpoints. Use this after a crash instead of NewEnv.
func RecoverPaths(fsys vfs.FileSystem, clock *sim.Clock, opts Options, dbPaths []string) (*Env, *RecoveryReport, error) {
	opts.fill()
	env := newEnvShell(fsys, clock, opts)
	for _, p := range dbPaths {
		f, err := fsys.Open(p)
		if errors.Is(err, vfs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		env.files[uint64(f.ID())] = f
	}
	scanStart := clock.Now()
	lg, err := wal.Open(fsys, logPath, wal.Options{SegmentBytes: opts.LogSegmentBytes})
	if err != nil {
		return nil, nil, err
	}
	env.log = lg
	env.log.SetTracer(opts.Tracer)
	recs, err := lg.Scan()
	if err != nil {
		return nil, nil, err
	}
	w, l, err := wal.ReplayRecords(recs, env.applyRecovery)
	if err != nil {
		return nil, nil, err
	}
	scan := env.log.LastScanStats()
	opts.Tracer.Hist("wal.recoveryScan").Observe(clock.Now() - scanStart)
	// Recovered pages must reach the files before a fresh checkpoint
	// truncates the log they were recovered from.
	for _, id := range detsort.Keys(env.files) {
		if err := env.files[id].Sync(); err != nil {
			return nil, nil, err
		}
	}
	if _, err := env.log.LogCheckpoint(); err != nil {
		return nil, nil, err
	}
	env.start()
	return env, &RecoveryReport{Winners: w, Losers: l, Scan: scan}, nil
}

// RecoveryReport summarizes a recovery pass.
type RecoveryReport struct {
	Winners int           // transactions redone
	Losers  int           // transactions undone
	Scan    wal.ScanStats // how much log the recovery scan had to read
}
