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

// loadRelations bulk-loads the four unpartitioned relations: the one-shard
// case of loadShardRelations.
func loadRelations(fsys vfs.FileSystem, cfg Config) error {
	part, err := NewPartitioner(cfg, 1)
	if err != nil {
		return err
	}
	return loadShardRelations(fsys, part, 0)
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

// userShard is one partition of the user-level system: its own file system
// (device), its own transaction environment with its own write-ahead log,
// and its slice of the relations.
type userShard struct {
	env                 *libtp.Env
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

// attach opens the four relations on the shard's environment.
func (sh *userShard) attach() error {
	var err error
	if sh.acc, err = sh.env.OpenDB(AccountPath); err != nil {
		return err
	}
	if sh.tel, err = sh.env.OpenDB(TellerPath); err != nil {
		return err
	}
	if sh.brn, err = sh.env.OpenDB(BranchPath); err != nil {
		return err
	}
	sh.hist, err = sh.env.OpenDB(HistoryPath)
	return err
}

// UserSystem runs TPC-B through the user-level transaction manager on one
// or more file systems. One environment is the paper's configuration: every
// transaction commits through the ordinary local path. With N > 1 the
// relations are range-partitioned by the Partitioner, one shard per device,
// and a transaction that touches several shards runs two-phase commit over
// the per-shard logs, with the account's shard as coordinator (the history
// record lands there too, so the coordinator always has work of its own).
// All shards share one lock manager — under namespaced lock ids — so
// cross-shard waits-for cycles are detected and broken exactly like local
// ones.
type UserSystem struct {
	clock  *sim.Clock
	costs  sim.CostModel
	part   *Partitioner
	shards []*userShard
	label  string
	gids   uint64 // global-transaction id counter (unique across the run)

	// Cross-shard accounting.
	crossTxns  int64
	singleTxns int64
}

// NewUserSystem builds the user-level configuration over the given
// environments, one per shard of part (for N > 1 the rig creates them with a
// shared lock manager and distinct lock spaces).
func NewUserSystem(envs []*libtp.Env, part *Partitioner, clock *sim.Clock, costs sim.CostModel) *UserSystem {
	s := &UserSystem{clock: clock, costs: costs, part: part, label: "user-" + envs[0].FS().Name()}
	if len(envs) > 1 {
		s.label += fmt.Sprintf("[%d]", len(envs))
	}
	for _, env := range envs {
		s.shards = append(s.shards, &userShard{
			env:        env,
			accCache:   btree.NewNodeCache(0),
			telCache:   btree.NewNodeCache(0),
			brnCache:   btree.NewNodeCache(0),
			histFrames: frame.NewList(env.FS().BlockSize()),
		})
	}
	return s
}

// Name implements System.
func (s *UserSystem) Name() string { return s.label }

// CrossShardTxns returns how many committed transactions spanned shards and
// how many stayed local.
func (s *UserSystem) CrossShardTxns() (cross, single int64) {
	return s.crossTxns, s.singleTxns
}

// Load implements System: bulk-load each shard's slice of the relations and
// open the per-shard database handles.
func (s *UserSystem) Load(Config) error {
	for i, sh := range s.shards {
		if err := loadShardRelations(sh.env.FS(), s.part, i); err != nil {
			return err
		}
	}
	return s.Attach()
}

// Attach opens the relations on already-loaded (e.g. recovered)
// environments. No load is performed.
func (s *UserSystem) Attach() error {
	for _, sh := range s.shards {
		if err := sh.attach(); err != nil {
			return err
		}
	}
	return nil
}

// Run implements System: the classic read-update of account, teller, and
// branch plus a history append, each relation update routed to its owning
// shard, then commit — locally when one shard saw all the work, by
// two-phase commit otherwise.
func (s *UserSystem) Run(t Txn) error {
	as := s.part.ShardOfAccount(t.Account)
	ts := s.part.ShardOfTeller(t.Teller)
	bs := s.part.ShardOfBranch(t.Branch)

	locals := make([]*libtp.Txn, len(s.shards))
	begin := func(sh int) *libtp.Txn {
		if locals[sh] == nil {
			locals[sh] = s.shards[sh].env.Begin()
		}
		return locals[sh]
	}
	// abortAll rolls every local transaction back and drops its shard's
	// interior caches (see the cache field comment for why aborts must
	// flush).
	abortAll := func() {
		for sh, tx := range locals {
			if tx != nil {
				tx.Abort()
				s.shards[sh].accCache.Flush()
				s.shards[sh].telCache.Flush()
				s.shards[sh].brnCache.Flush()
			}
		}
	}
	// Begin the coordinator (the account's shard) first so its local
	// transaction ids advance deterministically.
	coord := begin(as)
	update := func(sh int, db *libtp.DB, c *btree.NodeCache, id int64) error {
		s.clock.Advance(s.costs.RecordOp)
		return updateBalance(begin(sh).Store(db), c, id, t.Amount)
	}
	if err := update(as, s.shards[as].acc, s.shards[as].accCache, t.Account); err != nil {
		abortAll()
		return err
	}
	if err := update(ts, s.shards[ts].tel, s.shards[ts].telCache, t.Teller); err != nil {
		abortAll()
		return err
	}
	if err := update(bs, s.shards[bs].brn, s.shards[bs].brnCache, t.Branch); err != nil {
		abortAll()
		return err
	}
	// The history record follows the account: the coordinator shard always
	// carries the transaction's one durable history row.
	s.clock.Advance(s.costs.RecordOp)
	if err := appendHistory(coord.Store(s.shards[as].hist), &s.shards[as].histFrames, s.clock, t); err != nil {
		abortAll()
		return err
	}

	// One shard saw all the work (always, with one shard): the ordinary
	// local commit.
	if ts == as && bs == as {
		if err := coord.Commit(); err != nil {
			return err
		}
		s.singleTxns++
		return nil
	}

	// Two-phase commit. Phase 1: every non-coordinator participant
	// prepares (durably, group-batched) while holding its locks.
	s.gids++
	gid := s.gids
	for sh, tx := range locals {
		if tx == nil || sh == as {
			continue
		}
		if err := tx.Prepare(gid); err != nil {
			abortAll()
			return err
		}
	}
	// Decision: the coordinator logs prepare + global-commit + its own
	// commit and forces once; when CommitGlobal returns the decision is
	// durable and the global transaction is committed.
	if err := coord.CommitGlobal(gid); err != nil {
		return err
	}
	// Phase 2: participants commit lazily — the decision record already
	// owns their fate, so no per-shard force is needed.
	for sh, tx := range locals {
		if tx == nil || sh == as {
			continue
		}
		if err := tx.CommitPrepared(); err != nil {
			return err
		}
	}
	s.crossTxns++
	return nil
}

// NewWorker implements MultiClient. The user-level system is stateless per
// call — transactions address the shared DB handles through their own
// transactional stores — so every client can share the System itself.
func (s *UserSystem) NewWorker() (Worker, error) { return s, nil }

// Drain implements System, in two phases across the shards: first force
// every log, then checkpoint (which flushes the cache) every shard. The
// order matters — a checkpoint truncates its shard's log, and an undecided
// prepare record on shard A must never outlive the loss of its decision
// record on shard B; after phase one every decision every shard depends on
// is durable.
func (s *UserSystem) Drain() error {
	for _, sh := range s.shards {
		if err := sh.env.ForceLog(); err != nil {
			return err
		}
	}
	for _, sh := range s.shards {
		if err := sh.env.Checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// ScanAccounts implements System: scan every shard's slice in shard order
// (which is key order, since partitions are ascending contiguous ranges).
func (s *UserSystem) ScanAccounts() (int64, error) {
	var n int64
	for _, sh := range s.shards {
		c, err := ScanAccountsOn(sh.env.FS())
		if err != nil {
			return n, err
		}
		n += c
	}
	return n, nil
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
	// Shared interior-node caches, as in userShard (see that field comment
	// for the abort-flush requirement).
	accCache *btree.NodeCache
	telCache *btree.NodeCache
	brnCache *btree.NodeCache
	// histFrames is the history relation's frame list, as in userShard.
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
// caches (abort rewinds page LSNs; see userShard).
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
