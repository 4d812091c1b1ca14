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
// other's upgrade waits for. scratch is the relation's: the handle borrows its
// page frames and node shells there.
func updateBalance(st pagestore.Store, scratch *btree.Scratch, id, amount int64) error {
	tr, err := btree.OpenWith(st, scratch)
	if err != nil {
		return err
	}
	defer tr.Close() // the handle's frames and shells go back to the relation's Scratch
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

// TxnSystem runs TPC-B through one transaction manager: LIBTP over the
// rig's file system (Figure 2), or the manager embedded in LFS (Figure 3).
// Everything but the manager is the same in both.
type TxnSystem struct {
	mgr   txnManager
	name  string
	clock *sim.Clock
	costs sim.CostModel
	// lockingScans runs snapshot scans as locking scans: user-level on FFS,
	// where before-images work but locking measured faster (DESIGN.md §11).
	lockingScans bool
	rels         [4]relation // in DBPaths order
	// scratch lends the per-transaction handles of the three B-tree
	// relations their page frames and node shells, and histFrames the history
	// relation's its tail-page frames. Clients run one at a time under the
	// scheduler's token, which is all that guards them.
	scratch    [3]btree.Scratch
	histFrames frame.List
	// run is the client Run executes on.
	run *worker
}

// The relations' indexes in TxnSystem.rels and scratch.
const (
	relAccount = iota
	relTeller
	relBranch
	relHistory
)

// NewUserSystem builds the user-level configuration over env.
func NewUserSystem(env *libtp.Env, clock *sim.Clock, costs sim.CostModel) *TxnSystem {
	fs := env.FS().Name()
	return newTxnSystem(userManager{env}, "user-"+fs, fs != "lfs", clock, costs)
}

// NewEmbeddedSystem builds the kernel configuration over m.
func NewEmbeddedSystem(m *core.Manager, clock *sim.Clock, costs sim.CostModel) *TxnSystem {
	return newTxnSystem(kernelManager{m}, "kernel-lfs", false, clock, costs)
}

func newTxnSystem(mgr txnManager, name string, lockingScans bool, clock *sim.Clock, costs sim.CostModel) *TxnSystem {
	s := &TxnSystem{mgr: mgr, name: name, clock: clock, costs: costs, lockingScans: lockingScans,
		histFrames: frame.NewList(mgr.fs().BlockSize())}
	s.run = &worker{s: s, c: mgr.newClient()}
	return s
}

// Name implements System.
func (s *TxnSystem) Name() string { return s.name }

// Load implements System: bulk-load the relations, hand them to the
// transaction manager, and open them.
func (s *TxnSystem) Load(cfg Config) error {
	if err := loadRelations(s.mgr.fs(), cfg); err != nil {
		return err
	}
	if err := s.mgr.loaded(); err != nil {
		return err
	}
	return s.attach()
}

// attach opens the four relations on an already-loaded (or recovered) file
// system.
func (s *TxnSystem) attach() (err error) {
	for i, path := range DBPaths() {
		if s.rels[i], err = s.mgr.open(path); err != nil {
			return err
		}
	}
	return nil
}

// Run implements System, executing on the system's own client.
func (s *TxnSystem) Run(t Txn) error { return s.run.Run(t) }

// NewWorker implements MultiClient: a client of its own over the shared
// relations.
func (s *TxnSystem) NewWorker() (Worker, error) {
	return &worker{s: s, c: s.mgr.newClient()}, nil
}

// Drain implements System.
func (s *TxnSystem) Drain() error { return s.mgr.drain() }

// ScanAccounts implements System.
func (s *TxnSystem) ScanAccounts() (int64, error) { return ScanAccountsOn(s.mgr.fs()) }

// OpenSnapshots opens a handle of its own on the relation at path and returns
// pin, which pins a read-only snapshot: the relation as of the pin, and the
// release that unpins it.
func (s *TxnSystem) OpenSnapshots(path string) (pin func() (pagestore.Store, func()), err error) {
	r, err := s.mgr.open(path)
	if err != nil {
		return nil, err
	}
	return func() (pagestore.Store, func()) {
		store, release := s.mgr.pin()
		return store(r), release
	}, nil
}

// worker is one client's execution context.
type worker struct {
	s *TxnSystem
	c txnClient
}

// Run implements Worker: the classic read-update of account, teller and
// branch plus a history append, then commit.
func (w *worker) Run(t Txn) error {
	if err := w.c.begin(); err != nil {
		return err
	}
	if err := w.apply(t); err != nil {
		w.c.abort()
		return err
	}
	return w.c.commit()
}

// apply performs t's work inside the client's running transaction, each
// record operation charged before it runs.
func (w *worker) apply(t Txn) error {
	s := w.s
	for i, id := range [3]int64{t.Account, t.Teller, t.Branch} {
		s.clock.Advance(s.costs.RecordOp)
		if err := updateBalance(w.c.store(s.rels[i]), &s.scratch[i], id, t.Amount); err != nil {
			return err
		}
	}
	s.clock.Advance(s.costs.RecordOp)
	return appendHistory(w.c.store(s.rels[relHistory]), &s.histFrames, s.clock, t)
}
