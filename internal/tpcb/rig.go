package tpcb

import (
	"fmt"
	"reflect"
	"strconv"
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
	// LogRetain archives dead WAL segments at checkpoint instead of
	// deleting them.
	LogRetain bool
	// Trace, when true, makes BuildRig construct a trace.Tracer on the
	// rig's clock and thread it through every layer — disk, file system,
	// buffer pools, lock table, log manager, transaction system — and
	// the driver (Rig.RunMPL/RunMixed) brackets its procs with it. The
	// tracer is exposed as Rig.Tracer. When false the rig runs with a nil
	// tracer, which costs nothing.
	Trace bool
	// Devices is the number of spindles (0 or 1 = the paper's single
	// disk). Each device carries its own file system; with more than one,
	// each also gets its own transaction environment and log, the TPC-B
	// relations are range-partitioned across them, and cross-shard
	// transactions run two-phase commit. More than one needs a user-level
	// rig kind.
	Devices int
	// InodeAtSync is ufs.Ops.InodeAtSync, handed to the rig's file system:
	// the `txnbench -fig fsync` arm, which no command-line flag reaches.
	InodeAtSync bool
}

// Rig is a ready-to-run benchmark configuration.
type Rig struct {
	Clock *sim.Clock
	// Dev is the single-file-system rig's device; nil when the rig has
	// more than one — use Devs.
	Dev *disk.Device
	// Devs lists the devices, one per file system.
	Devs []*disk.Device
	// Crash injects whole-machine crashes across Devs. Each device joined
	// it when it was created, so crash points count from power-on.
	Crash *disk.CrashSet
	FS    vfs.FileSystem // nil for partitioned rigs, which have one per device
	LFS   *lfs.FS        // non-nil for single-FS LFS-based rigs
	Sys   System
	Core  *core.Manager // non-nil for the embedded rig
	// Shards holds the transaction environments of a user-level rig, one
	// per file system (nil for the embedded rig); Part maps ids to them.
	// Env is the sole environment of a single-FS user-level rig, nil
	// otherwise.
	Shards []*libtp.Env
	Part   *Partitioner
	Env    *libtp.Env
	// Idle is the between-transactions hook (non-nil when CleanerMode is
	// "idle"): one incremental background cleaning step, charged against
	// foreground idle time. The driver calls it after every transaction.
	Idle func() error
	// Tracer is non-nil when the rig was built with RigOptions.Trace.
	Tracer *trace.Tracer
}

// LockStats returns the rig's lock-manager counters regardless of which
// transaction system it carries.
func (r *Rig) LockStats() lock.Stats {
	if len(r.Shards) > 0 {
		// All shards share one lock manager; any environment reports it.
		return r.Shards[0].LockStats()
	}
	if r.Core != nil {
		return r.Core.LockStats()
	}
	return lock.Stats{}
}

// The rig-wide counter accessors: one layer's Stats for the whole rig, nil
// when the rig has no such layer. A partitioned rig has the layer once per
// shard (device, file system, environment); the accessor returns the
// field-wise sum, each event having been counted in exactly one shard.

// DiskStats sums the physical devices' counters.
func (r *Rig) DiskStats() *disk.Stats { return sumOver(r.Devs, (*disk.Device).Stats) }

// LFSStats sums the log-structured file systems' counters.
func (r *Rig) LFSStats() *lfs.Stats {
	return sumOver(only[*lfs.FS](r.fileSystems()), (*lfs.FS).Stats)
}

// FFSStats sums the read-optimized file systems' counters.
func (r *Rig) FFSStats() *ffs.Stats {
	return sumOver(only[*ffs.FS](r.fileSystems()), (*ffs.FS).Stats)
}

// WALStats sums the user-level environments' log-manager counters.
func (r *Rig) WALStats() *wal.Stats { return sumOver(r.Shards, (*libtp.Env).LogStats) }

// LibTPStats sums the user-level environments' transaction counters.
func (r *Rig) LibTPStats() *libtp.Stats { return sumOver(r.Shards, (*libtp.Env).Stats) }

// fileSystems lists the rig's file systems: the single one, or one per shard.
func (r *Rig) fileSystems() []vfs.FileSystem {
	if r.FS != nil {
		return []vfs.FileSystem{r.FS}
	}
	fss := make([]vfs.FileSystem, len(r.Shards))
	for i, env := range r.Shards {
		fss[i] = env.FS()
	}
	return fss
}

// only keeps the file systems of type F.
func only[F any](fss []vfs.FileSystem) []F {
	var out []F
	for _, fsys := range fss {
		if f, ok := fsys.(F); ok {
			out = append(out, f)
		}
	}
	return out
}

// sumOver returns the field-wise sum of stats(x) over xs, or nil when xs is
// empty. It is the one aggregator for every layer's Stats type, so a counter
// added to a layer is summed with no edit here; it reflects, so it is for
// end-of-run reporting only.
func sumOver[E, S any](xs []E, stats func(E) S) *S {
	if len(xs) == 0 {
		return nil
	}
	total := new(S)
	dst := reflect.ValueOf(total).Elem()
	for _, x := range xs {
		addFields(dst, reflect.ValueOf(stats(x)))
	}
	return total
}

// addFields adds src into dst field by field: integers (counters and
// durations) add, nested structs recurse.
func addFields(dst, src reflect.Value) {
	for i := 0; i < dst.NumField(); i++ {
		switch d, s := dst.Field(i), src.Field(i); d.Kind() {
		case reflect.Int, reflect.Int64:
			d.SetInt(d.Int() + s.Int())
		case reflect.Struct:
			addFields(d, s)
		default:
			panic(fmt.Sprintf("tpcb: cannot sum %s.%s", dst.Type(), dst.Type().Field(i).Name))
		}
	}
}

// DiskModelFor returns the simulated disk geometry the rig builder would
// pick for a configuration (exposed for harnesses that assemble their own
// stacks, e.g. the user-TP-on-transaction-kernel leg of Figure 5).
func DiskModelFor(cfg Config, expectedTxns int) sim.DiskModel {
	dbPages := dbPagesEstimate(cfg, expectedTxns)
	model := sim.RZ55Model()
	freeBlocks := max(int64(expectedTxns), dbPages)
	model.NumBlocks = dbPages + dbPages/5 + freeBlocks + 2048
	return model
}

// CacheBlocksFor returns the per-pool cache sizing for a configuration.
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

// BuildRig constructs the devices, the file system(s), the transaction
// system, and the loaded database for one configuration. A partitioned
// N-device user-level rig gets one file system, transaction environment, and
// write-ahead log per device, the relations range-partitioned across them,
// and one lock manager shared by all environments (under per-shard lock
// namespaces) so cross-shard waits-for cycles are detected like local ones;
// every other rig is the one-file-system case of the same assembly.
func BuildRig(opts RigOptions) (*Rig, error) {
	if opts.Costs == (sim.CostModel{}) {
		opts.Costs = sim.SpriteCosts()
	}
	if opts.GroupCommit < 1 {
		opts.GroupCommit = 1
	}
	if opts.ExpectedTxns == 0 {
		opts.ExpectedTxns = 100000
	}
	if opts.DiskScale == 0 {
		opts.DiskScale = 1.0
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
	// n is the number of devices, each carrying one file system.
	n := max(opts.Devices, 1)
	if n > 1 && kernel {
		return nil, fmt.Errorf("tpcb: %d devices need a user-level rig kind (one transaction environment per device), got %q", n, opts.Kind)
	}
	switch opts.CleanerMode {
	case "", "sync":
		// Default: the flush path cleans synchronously when it must.
	case "idle":
		if n > 1 {
			return nil, fmt.Errorf("tpcb: cleaner mode %q is not supported on partitioned rigs", opts.CleanerMode)
		}
		if opts.Kind == "user-ffs" {
			return nil, fmt.Errorf("tpcb: cleaner mode %q needs an LFS-based rig, got %q", opts.CleanerMode, opts.Kind)
		}
	default:
		return nil, fmt.Errorf("tpcb: unknown cleaner mode %q (want sync or idle)", opts.CleanerMode)
	}
	var part *Partitioner
	if !kernel {
		var err error
		if part, err = NewPartitioner(opts.Config, n); err != nil {
			return nil, err
		}
	}

	dbPages := dbPagesEstimate(opts.Config, opts.ExpectedTxns)
	model := sim.RZ55Model()
	// Disk sizing preserves two regimes of the paper's full-scale setup
	// rather than scaling the disk purely with the database:
	//  - enough free space that the log wraps (and the cleaner cycles) at
	//    the paper's per-transaction rate — per-transaction write volume
	//    does not shrink with the database, so free space is sized from
	//    the expected transaction count (~1 block of eventual log space
	//    per transaction kept free, matching the paper's ~18 log cycles
	//    per 100k-transaction run);
	//  - the database still occupying a large fraction of the disk.
	freeBlocks := max(int64(opts.ExpectedTxns), dbPages)
	model.NumBlocks = int64(float64(dbPages+dbPages/5+freeBlocks+2048) * opts.DiskScale)
	// The paper's machine cached a small fraction of the database (32 MB
	// of memory against a 160 MB account file plus the OS): "databases too
	// large to cache in main memory" is what makes the workload
	// read-bound. One tenth per pool; the user-level systems have two
	// pools (user + kernel), the embedded system gets the whole budget in
	// its single kernel cache.
	cache := max(int(dbPages/10), 96)
	if opts.CacheBlocks > 0 {
		cache = opts.CacheBlocks
	}
	if n > 1 {
		// Each shard carries ~1/N of the database and of the history growth,
		// plus fixed per-file-system slack (superblock, checkpoint regions,
		// segment headroom).
		model.NumBlocks = model.NumBlocks/int64(n) + 2048
		cache = max(cache/n, 96)
	}

	clk := sim.NewClock()
	var tr *trace.Tracer
	if opts.Trace {
		tr = trace.New(clk)
	}
	rig := &Rig{Clock: clk, Tracer: tr, Part: part, Crash: disk.NewCrashSet()}
	var locks *lock.Manager // shared across shards; a lone environment keeps its private one
	if n > 1 {
		locks = lock.NewManager()
	}
	for i := 0; i < n; i++ {
		// Each file system gets its own device, joined to the crash set
		// before Format so crash points count from power-on. A lone file
		// system traces its pool under the bare name, shard i under an
		// indexed one.
		dev := disk.New(model, clk)
		dev.SetTracer(tr)
		rig.Crash.Join(dev)
		rig.Devs = append(rig.Devs, dev)
		shard := ""
		if n > 1 {
			shard = strconv.Itoa(i)
		}
		var fsys vfs.FileSystem
		if opts.Kind == "user-ffs" {
			ff, err := ffs.Format(dev, clk, ffs.Options{CacheBlocks: cache, SyncInterval: 30 * time.Second, InodeAtSync: opts.InodeAtSync})
			if err != nil {
				return nil, err
			}
			ff.SetTracer(tr)
			ff.Pool().SetTracer(tr, "buffer.ffs"+shard)
			fsys = ff
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
			lf.Pool().SetTracer(tr, "buffer.lfs"+shard)
			fsys = lf
			if n == 1 {
				rig.LFS = lf
			}
		}
		if n == 1 {
			rig.Dev, rig.FS = dev, fsys
		}
		if kernel {
			rig.Core = core.New(rig.LFS, clk, core.Options{Costs: opts.Costs, GroupCommit: opts.GroupCommit, Tracer: tr})
			rig.Sys = NewEmbeddedSystem(rig.Core, clk, opts.Costs)
			break
		}
		envOpts := libtp.Options{
			CacheBlocks:     cache,
			Costs:           opts.Costs,
			GroupCommit:     opts.GroupCommit,
			LogSegmentBytes: opts.LogSegmentBytes,
			LogRetain:       opts.LogRetain,
			Tracer:          tr,
		}
		if n > 1 {
			envOpts.Locks, envOpts.LockSpace = locks, ShardLockSpace(i)
		}
		env, err := libtp.NewEnv(fsys, clk, envOpts)
		if err != nil {
			return nil, err
		}
		rig.Shards = append(rig.Shards, env)
	}
	if !kernel {
		rig.Sys = NewUserSystem(rig.Shards, part, clk, opts.Costs)
		if n == 1 {
			rig.Env = rig.Shards[0]
		}
	}
	if err := rig.Sys.Load(opts.Config); err != nil {
		return nil, fmt.Errorf("tpcb: load on %s: %w", opts.Kind, err)
	}
	if opts.CleanerMode == "idle" {
		lfsys := rig.LFS
		rig.Idle = func() error {
			_, err := lfsys.CleanIdle()
			return err
		}
	}
	// The measured run must not hide background work behind idle time the
	// load phase accumulated.
	for _, d := range rig.Devs {
		d.ResetIdleCredit()
	}
	return rig, nil
}
