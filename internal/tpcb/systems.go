package tpcb

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/core"
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

// LoadRelations bulk-loads the four relations directly through the file
// system (the offline load phase; transactions are not involved) and syncs.
func LoadRelations(fsys vfs.FileSystem, cfg Config) error {
	return loadRelations(fsys, cfg)
}

// ScanAccountsOn walks the account B-tree in key order through a raw file
// store on any file system (the §5.3 SCAN test measurement).
func ScanAccountsOn(fsys vfs.FileSystem) (int64, error) {
	return scanAccounts(fsys)
}

// loadRelations bulk-loads the four relations directly through the file
// system (the offline load phase; transactions are not involved) and syncs.
func loadRelations(fsys vfs.FileSystem, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	mkTree := func(path string, n int64) error {
		f, err := fsys.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		// Bulk-build the primary index bottom-up from the sorted id
		// stream, as a real database load utility would.
		id := int64(0)
		_, err = btree.BulkLoad(pagestore.NewFileStore(f, fsys.BlockSize()), func() ([]byte, []byte, bool) {
			if id >= n {
				return nil, nil, false
			}
			k, v := Key(id), BalanceRecord(id, 0)
			id++
			return k, v, true
		})
		return err
	}
	if err := mkTree(AccountPath, cfg.Accounts); err != nil {
		return fmt.Errorf("tpcb: load accounts: %w", err)
	}
	if err := mkTree(TellerPath, cfg.Tellers); err != nil {
		return fmt.Errorf("tpcb: load tellers: %w", err)
	}
	if err := mkTree(BranchPath, cfg.Branches); err != nil {
		return fmt.Errorf("tpcb: load branches: %w", err)
	}
	f, err := fsys.Create(HistoryPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := recno.Create(pagestore.NewFileStore(f, fsys.BlockSize()), HistoryRecordSize); err != nil {
		return fmt.Errorf("tpcb: load history: %w", err)
	}
	return fsys.Sync()
}

// scanAccounts walks the account B-tree in key order through a raw file
// store (the SCAN test measures file-system layout, not locking).
func scanAccounts(fsys vfs.FileSystem) (int64, error) {
	f, err := fsys.Open(AccountPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	tr, err := btree.Open(pagestore.NewFileStore(f, fsys.BlockSize()))
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
	if c.Err() != nil {
		return n, c.Err()
	}
	return n, nil
}

// --- user-level system (LIBTP, Figure 2) ---

// UserSystem runs TPC-B through the user-level transaction manager on any
// file system.
type UserSystem struct {
	env   *libtp.Env
	clock *sim.Clock
	costs sim.CostModel
	label string
	acc   *libtp.DB
	tel   *libtp.DB
	brn   *libtp.DB
	hist  *libtp.DB
	// Interior-node caches, one per B-tree relation (history is recno — no
	// interior pages). Shared across workers, validated by on-page LSN, and
	// flushed wholesale on any abort: the before-image restore rewinds page
	// LSNs, so a post-abort writer could reissue an LSN the cache still maps
	// to aborted-timeline bytes.
	accCache *btree.NodeCache
	telCache *btree.NodeCache
	brnCache *btree.NodeCache
}

// NewUserSystem builds the user-level configuration on env's file system.
func NewUserSystem(env *libtp.Env, clock *sim.Clock, costs sim.CostModel) *UserSystem {
	return &UserSystem{
		env:      env,
		clock:    clock,
		costs:    costs,
		label:    "user-" + env.FS().Name(),
		accCache: btree.NewNodeCache(0),
		telCache: btree.NewNodeCache(0),
		brnCache: btree.NewNodeCache(0),
	}
}

// abort rolls the transaction back and drops the shared interior caches
// (see the cache field comment for why aborts must flush).
func (s *UserSystem) abort(txn *libtp.Txn) {
	txn.Abort()
	s.accCache.Flush()
	s.telCache.Flush()
	s.brnCache.Flush()
}

// Name implements System.
func (s *UserSystem) Name() string { return s.label }

// Load implements System.
func (s *UserSystem) Load(cfg Config) error {
	if err := loadRelations(s.env.FS(), cfg); err != nil {
		return err
	}
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
	if s.hist, err = s.env.OpenDB(HistoryPath); err != nil {
		return err
	}
	return nil
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
	if s.hist, err = s.env.OpenDB(HistoryPath); err != nil {
		return err
	}
	return nil
}

// Run implements System: the classic read-update of account, teller, and
// branch plus a history append, inside one transaction.
func (s *UserSystem) Run(t Txn) error {
	txn := s.env.Begin()
	update := func(db *libtp.DB, c *btree.NodeCache, id int64) error {
		s.clock.Advance(s.costs.RecordOp)
		tr, err := btree.OpenWithCache(txn.Store(db), c)
		if err != nil {
			return err
		}
		rec, err := tr.Get(Key(id))
		if err != nil {
			return err
		}
		rec2 := append([]byte(nil), rec...)
		SetBalance(rec2, Balance(rec2)+t.Amount)
		return tr.Put(Key(id), rec2)
	}
	if err := update(s.acc, s.accCache, t.Account); err != nil {
		s.abort(txn)
		return err
	}
	if err := update(s.tel, s.telCache, t.Teller); err != nil {
		s.abort(txn)
		return err
	}
	if err := update(s.brn, s.brnCache, t.Branch); err != nil {
		s.abort(txn)
		return err
	}
	s.clock.Advance(s.costs.RecordOp)
	hf, err := recno.Open(txn.Store(s.hist))
	if err != nil {
		s.abort(txn)
		return err
	}
	if _, err := hf.Append(HistoryRecord(t.Account, t.Teller, t.Branch, t.Amount, int64(s.clock.Now()))); err != nil {
		s.abort(txn)
		return err
	}
	return txn.Commit()
}

// NewWorker implements MultiClient. The user-level system is stateless per
// call — transactions address the shared DB handles through their own
// transactional stores — so every client can share the System itself.
func (s *UserSystem) NewWorker() (Worker, error) { return s, nil }

// Drain implements System: force any batched commits and flush the cache
// through a checkpoint.
func (s *UserSystem) Drain() error {
	return s.env.Checkpoint()
}

// ScanAccounts implements System.
func (s *UserSystem) ScanAccounts() (int64, error) {
	return scanAccounts(s.env.FS())
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
}

// NewEmbeddedSystem builds the kernel configuration.
func NewEmbeddedSystem(m *core.Manager, clock *sim.Clock, costs sim.CostModel) *EmbeddedSystem {
	return &EmbeddedSystem{
		m: m, clock: clock, costs: costs, proc: m.NewProcess(),
		accCache: btree.NewNodeCache(0),
		telCache: btree.NewNodeCache(0),
		brnCache: btree.NewNodeCache(0),
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
	hf, err := recno.OpenForAppend(core.NewStore(proc, s.hist))
	if err != nil {
		return err
	}
	_, err = hf.Append(HistoryRecord(t.Account, t.Teller, t.Branch, t.Amount, int64(s.clock.Now())))
	return err
}

// update adds amount to one balance record inside proc's transaction.
func (s *EmbeddedSystem) update(proc *core.Process, f *core.File, c *btree.NodeCache, id, amount int64) error {
	s.clock.Advance(s.costs.RecordOp)
	tr, err := btree.OpenWithCache(core.NewStore(proc, f), c)
	if err != nil {
		return err
	}
	// Read for update: the leaf is write-locked at first touch. With locks
	// released at pre-commit, a Get that upgraded at the Put would deadlock
	// every pair of clients meeting on the hot teller or branch leaf.
	rec, err := tr.GetForUpdate(Key(id))
	if err != nil {
		return err
	}
	rec2 := append([]byte(nil), rec...)
	SetBalance(rec2, Balance(rec2)+amount)
	return tr.Put(Key(id), rec2)
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
	return scanAccounts(s.m.FS())
}

// Close implements System.
func (s *EmbeddedSystem) Close() error { return nil }
