package tpcb

import (
	"repro/internal/core"
	"repro/internal/libtp"
	"repro/internal/pagestore"
	"repro/internal/vfs"
)

// txnManager and txnClient are the one thing Figures 2 and 3 do differently:
// where the transaction manager lives. Each is implemented once over
// libtp.Env (LIBTP and its write-ahead log above the file system) and once
// over core.Manager (the manager embedded in LFS); TxnSystem, its workers and
// its scanners are written once over them.
type txnManager interface {
	fs() vfs.FileSystem
	// loaded runs after the bulk load, before the relations are opened.
	loaded() error
	open(path string) (relation, error)
	// newClient returns a client of its own for one worker or scanner.
	newClient() txnClient
	// pin pins a read-only snapshot and returns store, which gives a
	// relation as of the pin, and the release that unpins it.
	pin() (store func(relation) pagestore.Store, release func())
	// drain completes any pending group commit and makes the run durable.
	drain() error
}

// txnClient runs one transaction at a time; store is r as the running
// transaction reads and writes it.
type txnClient interface {
	begin() error
	store(r relation) pagestore.Store
	commit() error
	abort()
}

// relation is one open relation file: db under LIBTP, file under the
// embedded manager (the other is nil).
type relation struct {
	db   *libtp.DB
	file *core.File
}

// userManager is LIBTP: one environment, with its own write-ahead log, on
// the rig's file system. Its clients share the environment and address the
// shared DB handles through their own transactional stores; its drain is a
// checkpoint, which forces the log and flushes the cache.
type userManager struct{ env *libtp.Env }

func (m userManager) fs() vfs.FileSystem   { return m.env.FS() }
func (m userManager) loaded() error        { return nil }
func (m userManager) newClient() txnClient { return &userClient{env: m.env} }
func (m userManager) drain() error         { return m.env.Checkpoint() }

func (m userManager) open(path string) (relation, error) {
	db, err := m.env.OpenDB(path)
	return relation{db: db}, err
}

func (m userManager) pin() (func(relation) pagestore.Store, func()) {
	snap := m.env.BeginSnapshot()
	return func(r relation) pagestore.Store { return snap.Store(r.db) }, snap.Close
}

type userClient struct {
	env *libtp.Env
	txn *libtp.Txn
}

func (c *userClient) begin() error                     { c.txn = c.env.Begin(); return nil }
func (c *userClient) store(r relation) pagestore.Store { return c.txn.Store(r.db) }
func (c *userClient) commit() error                    { return c.txn.Commit() }
func (c *userClient) abort()                           { c.txn.Abort() }

// kernelManager is the manager embedded in LFS. Its loaded turns transaction
// protection on for the four relations and makes the load durable; each of
// its clients is a kernel process of its own (the paper's restriction 3:
// transactions may not span processes).
type kernelManager struct{ m *core.Manager }

func (k kernelManager) fs() vfs.FileSystem   { return k.m.FS() }
func (k kernelManager) newClient() txnClient { return kernelClient{k.m.NewProcess()} }
func (k kernelManager) drain() error         { return k.m.Flush() }

func (k kernelManager) loaded() error {
	for _, p := range DBPaths() {
		if err := k.m.Protect(p); err != nil {
			return err
		}
	}
	return k.m.FS().Sync()
}

func (k kernelManager) open(path string) (relation, error) {
	f, err := k.m.Open(path)
	return relation{file: f}, err
}

func (k kernelManager) pin() (func(relation) pagestore.Store, func()) {
	snap := k.m.BeginSnapshot()
	return func(r relation) pagestore.Store { return snap.Store(r.file) }, snap.Close
}

type kernelClient struct{ proc *core.Process }

func (c kernelClient) begin() error                     { return c.proc.TxnBegin() }
func (c kernelClient) store(r relation) pagestore.Store { return core.NewStore(c.proc, r.file) }
func (c kernelClient) commit() error                    { return c.proc.TxnCommit() }
func (c kernelClient) abort()                           { c.proc.TxnAbort() }
