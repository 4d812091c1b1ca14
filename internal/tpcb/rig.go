package tpcb

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/ffs"
	"repro/internal/lfs"
	"repro/internal/libtp"
	"repro/internal/lock"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// RigOptions configures a benchmark rig.
type RigOptions struct {
	// Kind selects the configuration: "user-ffs", "user-lfs", "kernel-lfs".
	Kind string
	// Config sizes the database.
	Config Config
	// Costs is the CPU cost model (default sim.SpriteCosts()).
	Costs sim.CostModel
	// GroupCommit is how many concurrent committers share one commit force
	// or flush (default 1 = every commit forces); a commit is durable when
	// it returns at any setting.
	GroupCommit int
	// ExpectedTxns sizes the disk for history growth (default 100000).
	ExpectedTxns int
	// DiskScale multiplies the computed disk size (default 1.0). At the
	// default the loaded database fills about a fifth of the disk (19, 23
	// and 24 % of its blocks at scale 0.05, 0.25 and 1.0 on LFS, as
	// cmd/tpcb's disk line reports); the paper's filled about half of its
	// RZ55.
	DiskScale float64
	// CacheBlocks overrides the computed per-pool buffer-cache size
	// (0 = the paper-faithful default of one tenth of the database). High
	// MPL runs need it: with no-steal buffering every uncommitted page
	// stays held, so the pool must fit the union of all concurrent
	// transactions' write sets.
	CacheBlocks int
	// CleanerMode selects how LFS-based rigs clean: "sync" (default) lets
	// the flush path invoke the cleaner synchronously on the critical
	// path; "idle" wires Rig.Idle to the incremental background cleaner so
	// the driver cleans between transactions in device idle windows.
	CleanerMode string
	// LogSegmentBytes bounds the WAL's segment payload size for the
	// user-level rigs (0 = the wal default). Small segments force frequent
	// rotations; checkpoints then truncate dead segments.
	LogSegmentBytes int64
	// Trace, when true, makes BuildRig construct a trace.Tracer on the
	// rig's clock and thread it through every layer — disk, file system,
	// buffer pools, lock table, log manager, transaction system — and
	// the driver (Rig.RunMPL/RunMixed) brackets its procs with it. The
	// tracer is exposed as Rig.Tracer. When false the rig runs with a nil
	// tracer, which costs nothing.
	Trace bool
	// InodeAtSync is ufs.Ops.InodeAtSync, handed to the rig's file system:
	// the `txnbench -fig fsync` arm, which no command-line flag reaches.
	InodeAtSync bool
}

// Rig is a ready-to-run benchmark configuration: one device carrying one
// file system, and on it either the user-level transaction environment with
// its write-ahead log or the embedded transaction manager.
type Rig struct {
	Clock *sim.Clock
	Dev   *disk.Device
	// Devs is Dev as a one-element slice, for callers that range over a
	// rig's devices (the repository benchmark, benchmark/rigs.go, does).
	Devs []*disk.Device
	FS   vfs.FileSystem
	LFS  *lfs.FS // non-nil for LFS-based rigs
	Sys  System
	Core *core.Manager // non-nil for the embedded rig
	Env  *libtp.Env    // non-nil for the user-level rigs
	// Idle is the between-transactions hook (non-nil when CleanerMode is
	// "idle"): one incremental background cleaning step, charged against
	// foreground idle time. The driver calls it after every transaction.
	Idle func() error
	// Tracer is non-nil when the rig was built with RigOptions.Trace.
	Tracer *trace.Tracer
	// opts are the options BuildRig built the rig with, defaults filled in.
	opts RigOptions
}

// LockStats returns the rig's lock-manager counters regardless of which
// transaction system it carries.
func (r *Rig) LockStats() lock.Stats {
	switch {
	case r.Env != nil:
		return r.Env.LockStats()
	case r.Core != nil:
		return r.Core.LockStats()
	}
	return lock.Stats{}
}

// The rig-wide counter accessors: one layer's Stats, nil when the rig has no
// such layer.

// DiskStats returns the device's counters.
func (r *Rig) DiskStats() *disk.Stats {
	if r.Dev == nil {
		return nil
	}
	st := r.Dev.Stats()
	return &st
}

// LFSStats returns the log-structured file system's counters.
func (r *Rig) LFSStats() *lfs.Stats {
	if r.LFS == nil {
		return nil
	}
	st := r.LFS.Stats()
	return &st
}

// FFSStats returns the read-optimized file system's counters.
func (r *Rig) FFSStats() *ffs.Stats {
	f, ok := r.FS.(*ffs.FS)
	if !ok {
		return nil
	}
	st := f.Stats()
	return &st
}

// WALStats returns the user-level environment's log-manager counters.
func (r *Rig) WALStats() *wal.Stats {
	if r.Env == nil {
		return nil
	}
	st := r.Env.LogStats()
	return &st
}

// LibTPStats returns the user-level environment's transaction counters.
func (r *Rig) LibTPStats() *libtp.Stats {
	if r.Env == nil {
		return nil
	}
	st := r.Env.Stats()
	return &st
}

// DiskModelFor returns the simulated disk geometry the rig builder picks for
// a configuration at disk scale 1 (exposed for harnesses that assemble their
// own stacks, e.g. the user-TP-on-transaction-kernel leg of Figure 5). The
// sizing preserves two regimes of the paper's full-scale setup rather than
// scaling the disk purely with the database:
//   - enough free space that the log wraps (and the cleaner cycles) at the
//     paper's per-transaction rate — per-transaction write volume does not
//     shrink with the database, so free space is sized from the expected
//     transaction count (~1 block of eventual log space per transaction kept
//     free, matching the paper's ~18 log cycles per 100k-transaction run);
//   - the database still occupying a large fraction of the disk.
func DiskModelFor(cfg Config, expectedTxns int) sim.DiskModel {
	dbPages := dbPagesEstimate(cfg, expectedTxns)
	model := sim.RZ55Model()
	freeBlocks := max(int64(expectedTxns), dbPages)
	model.NumBlocks = dbPages + dbPages/5 + freeBlocks + 2048
	return model
}

// CacheBlocksFor returns the per-pool cache sizing for a configuration. The
// paper's machine cached a small fraction of the database (32 MB of memory
// against a 160 MB account file plus the OS): "databases too large to cache
// in main memory" is what makes the workload read-bound. One tenth per pool;
// the user-level systems have two pools (user + kernel), the embedded system
// gets the whole budget in its single kernel cache.
func CacheBlocksFor(cfg Config, expectedTxns int) int {
	return max(int(dbPagesEstimate(cfg, expectedTxns)/10), 96)
}

// dbPagesEstimate approximates the loaded database size in pages.
func dbPagesEstimate(cfg Config, expectedTxns int) int64 {
	balances := cfg.Accounts + cfg.Tellers + cfg.Branches
	treePages := balances/28 + 64 // ~30 records per 4 KB leaf + interior slack
	historyPages := int64(expectedTxns)/75 + 16
	return treePages + historyPages
}

// BuildRig constructs the device, the file system, the transaction system,
// and the loaded database for one configuration.
func BuildRig(opts RigOptions) (*Rig, error) {
	if opts.Costs == (sim.CostModel{}) {
		opts.Costs = sim.SpriteCosts()
	}
	if opts.GroupCommit < 0 || opts.LogSegmentBytes < 0 {
		return nil, fmt.Errorf("tpcb: group commit %d, log segment bytes %d: want neither negative", opts.GroupCommit, opts.LogSegmentBytes)
	}
	if opts.GroupCommit == 0 {
		opts.GroupCommit = 1
	}
	if opts.ExpectedTxns == 0 {
		opts.ExpectedTxns = 100000
	}
	if opts.DiskScale == 0 {
		opts.DiskScale = 1.0
	}
	if err := CheckScale("tpcb: disk scale", opts.DiskScale); err != nil {
		return nil, err
	}
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	switch opts.Kind {
	case "user-ffs", "user-lfs", "kernel-lfs":
	default:
		return nil, fmt.Errorf("tpcb: unknown rig kind %q", opts.Kind)
	}
	kernel := opts.Kind == "kernel-lfs"
	switch opts.CleanerMode {
	case "", "sync":
		// Default: the flush path cleans synchronously when it must.
	case "idle":
		if opts.Kind == "user-ffs" {
			return nil, fmt.Errorf("tpcb: cleaner mode %q needs an LFS-based rig, got %q", opts.CleanerMode, opts.Kind)
		}
	default:
		return nil, fmt.Errorf("tpcb: unknown cleaner mode %q (want sync or idle)", opts.CleanerMode)
	}

	model := DiskModelFor(opts.Config, opts.ExpectedTxns)
	blocks := float64(model.NumBlocks) * opts.DiskScale
	if blocks > disk.MaxBlocks {
		return nil, fmt.Errorf("tpcb: a disk of %.0f blocks is more than the %d a rig allocates", blocks, disk.MaxBlocks)
	}
	model.NumBlocks = int64(blocks)
	cache := CacheBlocksFor(opts.Config, opts.ExpectedTxns)
	if opts.CacheBlocks > 0 {
		cache = opts.CacheBlocks
	}

	clk := sim.NewClock()
	var tr *trace.Tracer
	if opts.Trace {
		tr = trace.New(clk)
	}
	// The device exists before Format, so crash points count from power-on.
	dev := disk.New(model, clk)
	dev.SetTracer(tr)
	rig := &Rig{Clock: clk, Tracer: tr, Dev: dev, Devs: []*disk.Device{dev}, opts: opts}
	if opts.Kind == "user-ffs" {
		ff, err := ffs.Format(dev, clk, ffs.Options{CacheBlocks: cache, SyncInterval: 30 * time.Second, InodeAtSync: opts.InodeAtSync})
		if err != nil {
			return nil, err
		}
		ff.SetTracer(tr)
		ff.Pool().SetTracer(tr, "buffer.ffs")
		rig.FS = ff
	} else {
		// The embedded system avoids double buffering: the user-level
		// configurations split the same memory between a user pool and
		// the kernel cache, so the kernel configuration gets the whole
		// budget in one cache (§1: the user-level architecture's
		// "functional redundancy").
		fsCache := cache
		if kernel {
			fsCache = 2 * cache
		}
		lf, err := lfs.Format(dev, clk, lfs.Options{CacheBlocks: fsCache, InodeAtSync: opts.InodeAtSync})
		if err != nil {
			return nil, err
		}
		lf.SetTracer(tr)
		lf.Pool().SetTracer(tr, "buffer.lfs")
		rig.FS, rig.LFS = lf, lf
	}
	var env *libtp.Env
	if !kernel {
		var err error
		env, err = libtp.NewEnv(rig.FS, clk, libtp.Options{
			CacheBlocks:     cache,
			Costs:           opts.Costs,
			GroupCommit:     opts.GroupCommit,
			LogSegmentBytes: opts.LogSegmentBytes,
			Tracer:          tr,
		})
		if err != nil {
			return nil, err
		}
	}
	if err := rig.install(env, tr).Load(opts.Config); err != nil {
		return nil, fmt.Errorf("tpcb: load on %s: %w", opts.Kind, err)
	}
	if opts.CleanerMode == "idle" {
		rig.Idle = func() error {
			_, err := rig.LFS.CleanIdle()
			return err
		}
	}
	// The measured run must not hide background work behind idle time the
	// load phase accumulated, nor count the load's device work as its own.
	dev.ResetIdleCredit()
	dev.ResetStats()
	return rig, nil
}

// install puts the rig's transaction system over its file system: the
// embedded manager on the kernel rig, env on a user-level one.
func (r *Rig) install(env *libtp.Env, tr *trace.Tracer) *TxnSystem {
	var sys *TxnSystem
	if env == nil {
		r.Core = core.New(r.LFS, r.Clock, core.Options{Costs: r.opts.Costs, GroupCommit: r.opts.GroupCommit, Tracer: tr})
		sys = NewEmbeddedSystem(r.Core, r.Clock, r.opts.Costs)
	} else {
		r.Env = env
		sys = NewUserSystem(env, r.Clock, r.opts.Costs)
	}
	r.Sys = sys
	return sys
}

// Recover reboots the rig after a crash of its device the way its system
// recovers, and returns the simulated time that took and, on a user-level
// rig, how much log the WAL recovery read. The steps, in order: clear the
// crash; mount the file system with a 256-block cache; on FFS rebuild the
// allocation bitmap from the inode table, which must precede WAL replay (a
// replay-driven allocation from the stale bitmap could clobber durable
// blocks); on a user-level rig replay the write-ahead log into a new
// environment; on LFS check the recovered file system. The embedded manager
// has no step of its own — the paper's "single recovery paradigm". After the
// measured interval a fresh, untraced system is attached to the recovered
// state in place of the rig's FS, LFS, Env or Core and Sys, so the rig runs
// on.
func (r *Rig) Recover() (time.Duration, wal.ScanStats, error) {
	var scan wal.ScanStats
	r.Dev.ClearCrash()
	start := r.Clock.Now()
	var fsys vfs.FileSystem
	var lf *lfs.FS
	if r.LFS != nil {
		var err error
		if lf, err = lfs.Mount(r.Dev, r.Clock, lfs.Options{CacheBlocks: 256}); err != nil {
			return 0, scan, fmt.Errorf("mount: %w", err)
		}
		fsys = lf
	} else {
		ff, err := ffs.Mount(r.Dev, r.Clock, ffs.Options{CacheBlocks: 256})
		if err != nil {
			return 0, scan, fmt.Errorf("mount: %w", err)
		}
		if _, err := ff.Fsck(); err != nil {
			return 0, scan, fmt.Errorf("fsck: %w", err)
		}
		fsys = ff
	}
	var env *libtp.Env
	if r.Core == nil {
		var rep *libtp.RecoveryReport
		var err error
		env, rep, err = libtp.RecoverPaths(fsys, r.Clock, libtp.Options{
			Costs:           r.opts.Costs,
			GroupCommit:     r.opts.GroupCommit,
			LogSegmentBytes: r.opts.LogSegmentBytes,
		}, DBPaths())
		if err != nil {
			return 0, scan, fmt.Errorf("wal recovery: %w", err)
		}
		scan = rep.Scan
	}
	if lf != nil {
		rep, err := lf.Fsck()
		if err != nil {
			return 0, scan, fmt.Errorf("fsck: %w", err)
		}
		if !rep.OK() {
			return 0, scan, fmt.Errorf("fsck: inconsistent state: %+v", rep)
		}
	}
	elapsed := r.Clock.Now() - start
	r.FS, r.LFS = fsys, lf
	return elapsed, scan, r.install(env, nil).attach()
}
