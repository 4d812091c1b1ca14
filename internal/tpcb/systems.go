package tpcb

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/libtp"
	"repro/internal/pagestore"
	"repro/internal/recno"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Relation paths.
const (
	AccountPath = "/account"
	TellerPath  = "/teller"
	BranchPath  = "/branch"
	HistoryPath = "/history"
)

// DBPaths lists all relation files (for LIBTP crash recovery).
func DBPaths() []string {
	return []string{AccountPath, TellerPath, BranchPath, HistoryPath}
}

// loadRelations bulk-loads the account, teller and branch B-trees with rows
// 0..n-1 of zero balance, and creates the history file empty.
func loadRelations(fsys vfs.FileSystem, cfg Config) error {
	mkTree := func(path string, n int64) error {
		f, err := fsys.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		// One key and one record buffer serve every row: BulkLoad has encoded
		// a pair into its page before it asks for the next.
		id, k, v := int64(0), Key(0), BalanceRecord(0, 0)
		_, err = btree.BulkLoad(pagestore.NewFileStore(f, fsys.BlockSize()), func() ([]byte, []byte, bool) {
			if id >= n {
				return nil, nil, false
			}
			putKey(k, id)
			putBalanceRecord(v, id, 0)
			id++
			return k, v, true
		})
		if err != nil {
			return fmt.Errorf("tpcb: load %s: %w", path, err)
		}
		return nil
	}
	if err := mkTree(AccountPath, cfg.Accounts); err != nil {
		return err
	}
	if err := mkTree(TellerPath, cfg.Tellers); err != nil {
		return err
	}
	if err := mkTree(BranchPath, cfg.Branches); err != nil {
		return err
	}
	f, err := fsys.Create(HistoryPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := recno.Create(pagestore.NewFileStore(f, fsys.BlockSize()), HistoryRecordSize); err != nil {
		return fmt.Errorf("tpcb: load %s: %w", HistoryPath, err)
	}
	return fsys.Sync()
}

// countRows walks the B-tree held in st in key order and returns the number
// of records seen. What the walk costs — page locks, snapshot reads, raw
// file reads — is the store's business.
func countRows(st pagestore.Store) (int64, error) {
	tr, err := btree.Open(st)
	if err != nil {
		return 0, err
	}
	c, err := tr.First()
	if err != nil {
		return 0, err
	}
	var n int64
	for c.Next() {
		n++
	}
	return n, c.Err()
}

// ScanAccountsOn walks the account B-tree in key order through a raw file
// store on any file system (the §5.3 SCAN test measures file-system layout,
// not locking).
func ScanAccountsOn(fsys vfs.FileSystem) (int64, error) {
	f, err := fsys.Open(AccountPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return countRows(pagestore.NewFileStore(f, fsys.BlockSize()))
}

// updateBalance adds amount to balance record id of the B-tree held in st,
// inside the transaction st belongs to: the one read-modify-write body both
// configurations run, which differ only in the store they hand in (LIBTP's
// transactional store, or a protected file under the embedded manager). The
// record is read for update, so the leaf is write-locked at first touch: a Get
// whose shared lock the Put then upgraded would deadlock every pair of clients
// meeting on the hot teller or branch leaf, each holding the shared lock the
// other's upgrade waits for.
func updateBalance(st pagestore.Store, cache *btree.NodeCache, id, amount int64) error {
	tr, err := btree.OpenWithCache(st, cache)
	if err != nil {
		return err
	}
	defer tr.Close() // the handle's page frames go back to the relation's cache
	key := Key(id)
	rec, err := tr.GetForUpdate(key)
	if err != nil {
		return err
	}
	// rec is the handle's until its next call, which is the Put: the new
	// record is built in a buffer of its own.
	rec2 := append([]byte(nil), rec...)
	SetBalance(rec2, Balance(rec2)+amount)
	return tr.Put(key, rec2)
}

// appendHistory appends t's history row to the record file held in st,
// stamped with clock's time once the file is open (the stamp is logged, so
// when it is taken is part of the pinned signatures). The tail page — the one
// page an append rewrites — is read for update, for the reason given at
// updateBalance. frames is the history relation's list of page frames: every
// transaction's handle borrows its tail-page image there.
func appendHistory(st pagestore.Store, frames *frame.List, clock *sim.Clock, t Txn) error {
	hf, err := recno.OpenForAppendFrom(st, frames)
	if err != nil {
		return err
	}
	defer hf.Close()
	_, err = hf.Append(HistoryRecord(t.Account, t.Teller, t.Branch, t.Amount, int64(clock.Now())))
	return err
}

// --- user-level system (LIBTP, Figure 2) ---

// UserSystem runs TPC-B through the user-level transaction manager: one
// environment, with its own write-ahead log, on the rig's file system.
type UserSystem struct {
	clock               *sim.Clock
	costs               sim.CostModel
	env                 *libtp.Env
	label               string
	acc, tel, brn, hist *libtp.DB
	// Interior-node caches, one per B-tree relation (history is recno — no
	// interior pages). Shared across workers, validated by on-page LSN, and
	// flushed wholesale on any abort: the before-image restore rewinds page
	// LSNs, so a post-abort writer could reissue an LSN the cache still maps
	// to aborted-timeline bytes.
	accCache, telCache, brnCache *btree.NodeCache
	// histFrames serves the history relation's per-transaction handles as the
	// caches' frame lists serve the B-trees'. Clients run one at a time under
	// the scheduler's token, which is all that guards it.
	histFrames frame.List
}

// NewUserSystem builds the user-level configuration over env.
func NewUserSystem(env *libtp.Env, clock *sim.Clock, costs sim.CostModel) *UserSystem {
	return &UserSystem{
		clock:      clock,
		costs:      costs,
		env:        env,
		label:      "user-" + env.FS().Name(),
		accCache:   btree.NewNodeCache(0),
		telCache:   btree.NewNodeCache(0),
		brnCache:   btree.NewNodeCache(0),
		histFrames: frame.NewList(env.FS().BlockSize()),
	}
}

// Name implements System.
func (s *UserSystem) Name() string { return s.label }

// Load implements System: bulk-load the relations and open the database
// handles.
func (s *UserSystem) Load(cfg Config) error {
	if err := loadRelations(s.env.FS(), cfg); err != nil {
		return err
	}
	return s.Attach()
}

// Attach opens the four relations on an already-loaded (e.g. recovered)
// environment. No load is performed.
func (s *UserSystem) Attach() error {
	var err error
	if s.acc, err = s.env.OpenDB(AccountPath); err != nil {
		return err
	}
	if s.tel, err = s.env.OpenDB(TellerPath); err != nil {
		return err
	}
	if s.brn, err = s.env.OpenDB(BranchPath); err != nil {
		return err
	}
	s.hist, err = s.env.OpenDB(HistoryPath)
	return err
}

// Run implements System: the classic read-update of account, teller, and
// branch plus a history append, then commit.
func (s *UserSystem) Run(t Txn) error {
	txn := s.env.Begin()
	if err := s.apply(txn, t); err != nil {
		txn.Abort()
		// See the cache field comment for why aborts must flush.
		s.accCache.Flush()
		s.telCache.Flush()
		s.brnCache.Flush()
		return err
	}
	return txn.Commit()
}

// apply performs t's work inside txn.
func (s *UserSystem) apply(txn *libtp.Txn, t Txn) error {
	if err := s.update(txn, s.acc, s.accCache, t.Account, t.Amount); err != nil {
		return err
	}
	if err := s.update(txn, s.tel, s.telCache, t.Teller, t.Amount); err != nil {
		return err
	}
	if err := s.update(txn, s.brn, s.brnCache, t.Branch, t.Amount); err != nil {
		return err
	}
	s.clock.Advance(s.costs.RecordOp)
	return appendHistory(txn.Store(s.hist), &s.histFrames, s.clock, t)
}

// update adds amount to one balance record inside txn.
func (s *UserSystem) update(txn *libtp.Txn, db *libtp.DB, c *btree.NodeCache, id, amount int64) error {
	s.clock.Advance(s.costs.RecordOp)
	return updateBalance(txn.Store(db), c, id, amount)
}

// NewWorker implements MultiClient. The user-level system is stateless per
// call — transactions address the shared DB handles through their own
// transactional stores — so every client can share the System itself.
func (s *UserSystem) NewWorker() (Worker, error) { return s, nil }

// Drain implements System: a checkpoint, which forces the log and flushes
// the cache.
func (s *UserSystem) Drain() error { return s.env.Checkpoint() }

// ScanAccounts implements System.
func (s *UserSystem) ScanAccounts() (int64, error) {
	return ScanAccountsOn(s.env.FS())
}

// Close implements System.
func (s *UserSystem) Close() error { return nil }

// --- embedded system (Figure 3) ---

// EmbeddedSystem runs TPC-B through the kernel transaction manager in LFS.
type EmbeddedSystem struct {
	m     *core.Manager
	clock *sim.Clock
	costs sim.CostModel
	proc  *core.Process
	acc   *core.File
	tel   *core.File
	brn   *core.File
	hist  *core.File
	// Shared interior-node caches, as in UserSystem (see that field comment
	// for the abort-flush requirement).
	accCache *btree.NodeCache
	telCache *btree.NodeCache
	brnCache *btree.NodeCache
	// histFrames is the history relation's frame list, as in UserSystem.
	histFrames frame.List
}

// NewEmbeddedSystem builds the kernel configuration.
func NewEmbeddedSystem(m *core.Manager, clock *sim.Clock, costs sim.CostModel) *EmbeddedSystem {
	return &EmbeddedSystem{
		m: m, clock: clock, costs: costs, proc: m.NewProcess(),
		accCache:   btree.NewNodeCache(0),
		telCache:   btree.NewNodeCache(0),
		brnCache:   btree.NewNodeCache(0),
		histFrames: frame.NewList(m.FS().BlockSize()),
	}
}

// abort rolls the process's transaction back and drops the shared interior
// caches (abort rewinds page LSNs; see UserSystem).
func (s *EmbeddedSystem) abort(proc *core.Process) {
	proc.TxnAbort()
	s.accCache.Flush()
	s.telCache.Flush()
	s.brnCache.Flush()
}

// Name implements System.
func (s *EmbeddedSystem) Name() string { return "kernel-lfs" }

// Load implements System: bulk-load, then turn transaction-protection on
// for all four relations.
func (s *EmbeddedSystem) Load(cfg Config) error {
	if err := loadRelations(s.m.FS(), cfg); err != nil {
		return err
	}
	for _, p := range DBPaths() {
		if err := s.m.Protect(p); err != nil {
			return err
		}
	}
	if err := s.m.FS().Sync(); err != nil {
		return err
	}
	return s.Attach()
}

// Attach opens the four relations on an already-loaded file system (after a
// crash and remount, for instance). No load is performed.
func (s *EmbeddedSystem) Attach() error {
	var err error
	if s.acc, err = s.m.Open(AccountPath); err != nil {
		return err
	}
	if s.tel, err = s.m.Open(TellerPath); err != nil {
		return err
	}
	if s.brn, err = s.m.Open(BranchPath); err != nil {
		return err
	}
	if s.hist, err = s.m.Open(HistoryPath); err != nil {
		return err
	}
	return nil
}

// Run implements System, executing on the system's default process.
func (s *EmbeddedSystem) Run(t Txn) error { return s.runWith(s.proc, t) }

// runWith executes one transaction on the given kernel process.
func (s *EmbeddedSystem) runWith(proc *core.Process, t Txn) error {
	if err := proc.TxnBegin(); err != nil {
		return err
	}
	if err := s.apply(proc, t); err != nil {
		s.abort(proc)
		return err
	}
	return proc.TxnCommit()
}

// apply performs t's work inside proc's open transaction: the read-update of
// account, teller and branch, then the history append.
func (s *EmbeddedSystem) apply(proc *core.Process, t Txn) error {
	if err := s.update(proc, s.acc, s.accCache, t.Account, t.Amount); err != nil {
		return err
	}
	if err := s.update(proc, s.tel, s.telCache, t.Teller, t.Amount); err != nil {
		return err
	}
	if err := s.update(proc, s.brn, s.brnCache, t.Branch, t.Amount); err != nil {
		return err
	}
	s.clock.Advance(s.costs.RecordOp)
	return appendHistory(core.NewStore(proc, s.hist), &s.histFrames, s.clock, t)
}

// update adds amount to one balance record inside proc's transaction.
func (s *EmbeddedSystem) update(proc *core.Process, f *core.File, c *btree.NodeCache, id, amount int64) error {
	s.clock.Advance(s.costs.RecordOp)
	return updateBalance(core.NewStore(proc, f), c, id, amount)
}

// embeddedWorker is one client's kernel process (the paper's restriction 3:
// transactions may not span processes, so each client needs its own).
type embeddedWorker struct {
	s    *EmbeddedSystem
	proc *core.Process
}

func (w *embeddedWorker) Run(t Txn) error { return w.s.runWith(w.proc, t) }

// NewWorker implements MultiClient: a fresh kernel process sharing the open
// relation files.
func (s *EmbeddedSystem) NewWorker() (Worker, error) {
	return &embeddedWorker{s: s, proc: s.m.NewProcess()}, nil
}

// Drain implements System.
func (s *EmbeddedSystem) Drain() error { return s.m.Flush() }

// ScanAccounts implements System.
func (s *EmbeddedSystem) ScanAccounts() (int64, error) {
	return ScanAccountsOn(s.m.FS())
}

// Close implements System.
func (s *EmbeddedSystem) Close() error { return nil }
