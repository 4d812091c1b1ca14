// Package figures regenerates every result figure of the paper's evaluation
// (§5, Figures 4–7) plus the ablations DESIGN.md calls out, and Figures lists
// them. Each TPC-B experiment is a declared list of cells, one rig and
// client mix each, that one runner builds and runs; its report holds one
// tpcb.Snapshot per cell and prints, from those alone, the series the paper
// plots beside the paper's own numbers. Figure 5 (Andrew, Bigfile and
// user-TP on the transaction kernel) and Figure 6's cold scans are bespoke.
package figures

import (
	"cmp"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/ffs"
	"repro/internal/lfs"
	"repro/internal/libtp"
	"repro/internal/sim"
	"repro/internal/tpcb"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// Options scales the experiments.
type Options struct {
	// Scale multiplies the paper's TPC-B sizing (1.0 = 1,000,000 accounts; default 0.05).
	Scale float64
	// Txns is the number of transactions per measured run (the paper ran
	// its throughput tests to steady state and the SCAN test after
	// 100,000 transactions). Default 5000.
	Txns int
	// CleanerMode overrides the LFS cleaning discipline of the rigs that
	// clean in their natural mode (rigFor): "sync" or "idle" (background
	// cleaning charged against foreground idle windows).
	CleanerMode string
	// MPLs are the MPL sweep's multiprogramming levels (default 1, 2, 4, 8, 16, 64, 256).
	MPLs []int
	// LogSegmentBytes bounds the user-level systems' WAL segment size (0 = the wal default).
	LogSegmentBytes int64
	// Scanners and ScansEach size the mixed OLTP + scan sweep (Scan):
	// Scanners concurrent readers each performing ScansEach full account
	// scans alongside the writers. Defaults 2 and 1.
	Scanners  int
	ScansEach int
}

func (o *Options) fill() {
	o.Scale, o.Txns = cmp.Or(o.Scale, 0.05), cmp.Or(o.Txns, 5000)
	o.Scanners, o.ScansEach = cmp.Or(o.Scanners, 2), cmp.Or(o.ScansEach, 1)
	if len(o.MPLs) == 0 {
		o.MPLs = []int{1, 2, 4, 8, 16, 64, 256}
	}
}

// groupCommit is the batch size of the MPL sweep's group-commit arm, and the
// scan sweep's batch size and writer MPL.
const groupCommit = 8

// systems are Figure 4's three configurations, in its order.
var systems = []string{"user-ffs", "user-lfs", "kernel-lfs"}

// cell is one TPC-B run of an experiment: the rig, the multiprogramming level
// of its writers, and the scan clients beside them (none unless scans > 0 and
// mode asks for some).
type cell struct {
	rig             tpcb.RigOptions
	mpl             int
	scanners, scans int
	mode            tpcb.ScanMode
}

// rig is the recipe every cell starts from: kind at the experiments' scale,
// sized for their transaction count, with their WAL segment size, the Sprite
// cost model and, on LFS, the synchronous cleaner.
func (o Options) rig(kind string) tpcb.RigOptions {
	return tpcb.RigOptions{Kind: kind, Config: tpcb.ScaledConfig(o.Scale), ExpectedTxns: o.Txns, LogSegmentBytes: o.LogSegmentBytes}
}

// rigFor is rig with each system cleaning in its natural mode unless
// Options.CleanerMode overrides it: kernel-lfs idle-overlapped (its cleaner
// lives below the device queue and sees idle windows), user-lfs
// synchronously (§5.4: a user-space cleaner cannot observe device idleness
// and serializes with the application), and user-ffs, which has no cleaner,
// taking no mode at all.
func (o Options) rigFor(kind string) tpcb.RigOptions {
	r := o.rig(kind)
	if kind != "user-ffs" {
		r.CleanerMode = o.CleanerMode
		if r.CleanerMode == "" && kind == "kernel-lfs" {
			r.CleanerMode = "idle"
		}
	}
	return r
}

// run is the one TPC-B runner. It builds each cell's rig, runs the cell and
// returns, in cell order, each rig's snapshot right after its load and the
// one at the end of its run (only the disk section of a snapshot leaves the
// load out). after, when not nil, sees each rig once its run is done; no rig
// outlives its cell.
func (o Options) run(cells []cell, after func(i int, rig *tpcb.Rig) error) ([]*tpcb.Snapshot, []*tpcb.Snapshot, error) {
	var loaded, end []*tpcb.Snapshot
	for i, c := range cells {
		rig, err := tpcb.BuildRig(c.rig)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", c.rig.Kind, err)
		}
		loaded = append(loaded, rig.Snapshot(tpcb.MixedResult{}))
		res, err := rig.RunMixed(c.rig.Config, o.Txns, c.mpl, c.scanners, c.scans, c.mode)
		if err == nil {
			end = append(end, rig.Snapshot(res))
			if after != nil {
				err = after(i, rig)
			}
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s mpl=%d: %w", c.rig.Kind, c.mpl, err)
		}
	}
	return loaded, end, nil
}

// measure runs cells into a report of type R holding their end-of-run snapshots.
func measure[R ~struct{ Runs }](opts Options, cells []cell) (*R, error) {
	_, rows, err := opts.run(cells, nil)
	if err != nil {
		return nil, err
	}
	return &R{Runs{opts, rows}}, nil
}

// Runs is what every TPC-B report holds: the options it ran at and one
// end-of-run snapshot per cell, in the order its experiment declares them.
type Runs struct {
	Opts Options
	Rows []*tpcb.Snapshot
}

// Metrics are each row's TPS, keyed "<row>:<system>-TPS".
func (r *Runs) Metrics() map[string]float64 {
	m := map[string]float64{}
	for i, row := range r.Rows {
		m[fmt.Sprintf("%d:%s-TPS", i, row.System)] = row.TPS
	}
	return m
}

// perTxn is n per transaction of a measured run.
func (r *Runs) perTxn(n int64) float64 { return float64(n) / float64(r.Opts.Txns) }

// Report is a figure's result: its table, and its headline metrics keyed by
// name and unit, as txnbench -json and the root benchmarks report them.
type Report interface {
	String() string
	Metrics() map[string]float64
}

// Figure is one experiment of the registry.
type Figure struct {
	Key  string // txnbench's -fig value
	Name string // the "figure" field of txnbench's -json stream
	All  bool   // whether txnbench -fig all runs it
	Run  func(Options) (Report, error)
}

// Figures is every experiment, in the order -fig all prints them. Key 6
// prints Figures 6 and 7; fsync repeats Figure 4's bars as its default arm,
// and mpl (42 runs) and scan are long, so none of the three is in all.
var Figures = []Figure{
	{"4", "figure4", true, func(o Options) (Report, error) { return Figure4(o) }},
	{"5", "figure5", true, func(o Options) (Report, error) { return Figure5(o) }},
	{"6", "figure67", true, func(o Options) (Report, error) { return Figure67(o) }},
	{"sync", "sync", true, func(o Options) (Report, error) { return AblationSync(o) }},
	{"fsync", "fsync", false, func(o Options) (Report, error) { return AblationFsync(o) }},
	{"cleaner", "cleaner", true, func(o Options) (Report, error) { return AblationCleaner(o) }},
	{"commitbytes", "commitbytes", true, func(o Options) (Report, error) { return AblationCommitBytes(o) }},
	{"mpl", "mpl", false, func(o Options) (Report, error) { return FigureMPL(o) }},
	{"scan", "scan", false, func(o Options) (Report, error) { return Scan(o) }},
}

// Figure4Report reproduces Figure 4: transaction performance of the three
// configurations at MPL 1, one row each.
type Figure4Report struct{ Runs }

// Figure4 runs the modified TPC-B on the three systems.
func Figure4(opts Options) (*Figure4Report, error) {
	opts.fill()
	var cells []cell
	for _, kind := range systems {
		cells = append(cells, cell{rig: opts.rigFor(kind), mpl: 1})
	}
	return measure[Figure4Report](opts, cells)
}

// String formats the report like the paper's Figure 4 bars.
func (r *Figure4Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 — Transaction Performance (modified TPC-B, MPL=1, scale %.2f, %d txns)\n", r.Opts.Scale, r.Opts.Txns)
	fmt.Fprintf(&b, "  %-12s %8s %12s %14s   %s\n", "system", "TPS", "elapsed", "cleaner-share", "paper")
	paper := map[string]string{"user-ffs": "12.3 TPS", "user-lfs": "13.6 TPS", "kernel-lfs": "≈ user-lfs"}
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12s %8.2f %12s %13.1f%%   %s\n",
			row.System, row.TPS, row.Elapsed.Truncate(time.Millisecond), cleanerShare(row)*100, paper[row.System])
	}
	fmt.Fprintf(&b, "  LFS over read-optimized: %+.1f%% (paper: +10%%); kernel/user on LFS: %.2f (paper: ≈1, user slowed by 2× sync syscalls)\n",
		(r.Rows[1].TPS/r.Rows[0].TPS-1)*100, r.Rows[2].TPS/r.Rows[1].TPS)
	return b.String()
}

// cleanerShare is the cleaner's share of row's elapsed time on the critical
// path (idle windows absorb the rest); the read-optimized system has none.
func cleanerShare(row *tpcb.Snapshot) float64 {
	if f := row.LFS; f != nil {
		return float64(f.Cleaner.BusyTime-f.Cleaner.OverlapTime) / float64(row.Elapsed)
	}
	return 0
}

// Metrics adds the two ratios and each system's cleaner share to the TPS.
func (r *Figure4Report) Metrics() map[string]float64 {
	m := r.Runs.Metrics()
	m["lfs/ffs"], m["kernel/user"] = r.Rows[1].TPS/r.Rows[0].TPS, r.Rows[2].TPS/r.Rows[1].TPS
	for _, row := range r.Rows {
		m[row.System+"-cleaner-share"] = cleanerShare(row)
	}
	return m
}

// Figure5Row compares one workload on the two kernels.
type Figure5Row struct {
	Workload string
	NormalK  time.Duration // unmodified kernel
	TxnK     time.Duration // kernel with embedded transaction support
}

// delta is the transaction kernel's overhead on the workload, in percent.
func (r Figure5Row) delta() float64 { return (float64(r.TxnK)/float64(r.NormalK) - 1) * 100 }

// Figure5Report reproduces Figure 5: impact of the kernel transaction
// implementation on non-transaction workloads.
type Figure5Report struct{ Rows []Figure5Row }

// Metrics are each workload's overhead on the transaction kernel.
func (r *Figure5Report) Metrics() map[string]float64 {
	m := map[string]float64{}
	for _, row := range r.Rows {
		m[row.Workload+"-overhead-%"] = row.delta()
	}
	return m
}

// Figure5 runs Andrew, Bigfile, and the user-level transaction system on an
// unmodified kernel and on the transaction-enabled kernel.
func Figure5(opts Options) (*Figure5Report, error) {
	opts.fill()
	rep := &Figure5Report{}
	for _, w := range []struct {
		name string
		run  func(txnKernel bool) (time.Duration, error)
	}{
		{"ANDREW", onWorkloadLFS(workload.RunAndrew, workload.DefaultAndrew())},
		{"BIGFILE", onWorkloadLFS(workload.RunBigfile, workload.DefaultBigfile())},
		{"USER-TP", opts.userTP},
	} {
		plain, err := w.run(false)
		if err != nil {
			return nil, err
		}
		txn, err := w.run(true)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, Figure5Row{Workload: w.name, NormalK: plain, TxnK: txn})
	}
	return rep, nil
}

// onWorkloadLFS runs a non-transaction workload at cfg on a 96 MB LFS, seen
// through the transaction kernel when txnKernel, and returns its total time.
func onWorkloadLFS[C any, R interface{ Total() time.Duration }](run func(vfs.FileSystem, *sim.Clock, C) (R, error), cfg C) func(txnKernel bool) (time.Duration, error) {
	return func(txnKernel bool) (time.Duration, error) {
		clk := sim.NewClock()
		model := sim.RZ55Model()
		model.NumBlocks = 24576
		base, err := lfs.Format(disk.New(model, clk), clk, lfs.Options{CacheBlocks: 2048})
		if err != nil {
			return 0, err
		}
		res, err := run(onKernel(base, clk, txnKernel), clk, cfg)
		return res.Total(), err
	}
}

// onKernel is base as the transaction kernel presents it when txnKernel.
func onKernel(base *lfs.FS, clk *sim.Clock, txnKernel bool) vfs.FileSystem {
	if txnKernel {
		return core.New(base, clk, core.Options{}).AsFileSystem()
	}
	return base
}

// userTP runs the user-level transaction system, which uses none of the
// kernel transaction machinery, and returns its elapsed time. On the
// transaction kernel its file accesses still pass through the embedded
// manager's lock-necessity check.
func (o Options) userTP(txnKernel bool) (time.Duration, error) {
	cfg := tpcb.ScaledConfig(o.Scale / 2)
	n := max(o.Txns/5, 200)
	clk := sim.NewClock()
	cache := tpcb.CacheBlocksFor(cfg, n)
	base, err := lfs.Format(disk.New(tpcb.DiskModelFor(cfg, n), clk), clk, lfs.Options{CacheBlocks: cache})
	if err != nil {
		return 0, err
	}
	env, err := libtp.NewEnv(onKernel(base, clk, txnKernel), clk, libtp.Options{CacheBlocks: cache})
	if err != nil {
		return 0, err
	}
	sys := tpcb.NewUserSystem(env, clk, sim.SpriteCosts())
	if err := sys.Load(cfg); err != nil {
		return 0, err
	}
	res, err := (&tpcb.Rig{Clock: clk, Sys: sys}).RunMPL(cfg, n, 1)
	return res.Elapsed, err
}

// String formats the report like Figure 5.
func (r *Figure5Report) String() string {
	var b strings.Builder
	b.WriteString("Figure 5 — Non-Transaction Performance (normal kernel vs transaction kernel)\n")
	fmt.Fprintf(&b, "  %-10s %14s %14s %9s   %s\n", "workload", "normal", "txn-kernel", "delta", "paper")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s %14s %14s %+8.2f%%   %s\n",
			row.Workload, row.NormalK.Truncate(time.Millisecond), row.TxnK.Truncate(time.Millisecond), row.delta(), "within 1–2%")
	}
	return b.String()
}

// paperCrossover is where the paper's Figure 7 lines cross, at full scale.
const paperCrossover = "≈134,300 txns (≈2h40m at 13.6 TPS)"

// Figure67Report reproduces the SCAN test (Figure 6) and the combined
// elapsed-time crossover (Figure 7). Its rows are the update phase on
// user-ffs, then on user-lfs.
type Figure67Report struct {
	Runs
	// Sequential key-order scan times after the random updates.
	FFSScan, LFSScan time.Duration
	// LFSScanCoalesced is the LFS scan after the coalescing cleaner (the
	// §5.3/§5.4 enhancement), the "promising solution" of the conclusion.
	LFSScanCoalesced time.Duration
	// CrossoverTxns is where Figure 7's lines meet (paper: ≈134,300 at full
	// scale), CrossoverTime that many transactions at user-lfs's rate.
	// Crosses is false, and both are zero, when the read-optimized system is
	// no slower per transaction: it stays ahead at every N.
	Crosses       bool
	CrossoverTxns float64
	CrossoverTime time.Duration
}

// Figure67 runs the SCAN experiment: load, run the update phase, remount
// (cold cache), then read the account relation in key order. Both systems
// clean synchronously whatever Options.CleanerMode says.
func Figure67(opts Options) (*Figure67Report, error) {
	opts.fill()
	rep := &Figure67Report{}
	cells := []cell{{rig: opts.rig("user-ffs"), mpl: 1}, {rig: opts.rig("user-lfs"), mpl: 1}}
	_, rows, err := opts.run(cells, func(i int, rig *tpcb.Rig) error {
		scan, coalesced, err := coldScan(rig)
		if i == 0 {
			rep.FFSScan = scan
		} else {
			rep.LFSScan, rep.LFSScanCoalesced = scan, coalesced
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("figure 6: %w", err)
	}
	rep.Runs = Runs{opts, rows}
	rep.figure7()
	return rep, nil
}

// coldScan remounts rig's file system from its device (a cold cache) and
// reads the account relation in key order. On LFS it then coalesces the
// fragmented account file with the cleaner machinery (the §5.3/§5.4
// enhancement) and scans cold again.
func coldScan(rig *tpcb.Rig) (scan, coalesced time.Duration, err error) {
	mountAndScan := func() (fsys vfs.FileSystem, elapsed time.Duration, err error) {
		if rig.LFS == nil {
			fsys, err = ffs.Mount(rig.Dev, rig.Clock, ffs.Options{CacheBlocks: 256})
		} else {
			fsys, err = lfs.Mount(rig.Dev, rig.Clock, lfs.Options{CacheBlocks: 256})
		}
		if err != nil {
			return nil, 0, err
		}
		// Cursor CPU: the paper's scan pushes every record through the
		// record layer; charge half a keyed record operation per record (a
		// cursor-next is cheaper than a search). Mount time is excluded.
		start := rig.Clock.Now()
		n, err := tpcb.ScanAccountsOn(fsys)
		rig.Clock.Advance(time.Duration(n) * sim.SpriteCosts().RecordOp / 2)
		return fsys, rig.Clock.Now() - start, err
	}
	fsys, scan, err := mountAndScan()
	lfsys, ok := fsys.(*lfs.FS)
	if err != nil || !ok {
		return scan, 0, err
	}
	if err := lfsys.Coalesce(tpcb.AccountPath); err != nil {
		return 0, 0, err
	}
	if err := lfsys.Sync(); err != nil {
		return 0, 0, err
	}
	_, coalesced, err = mountAndScan()
	return scan, coalesced, err
}

// figure7 sets the crossover from the update phase and the scans.
func (r *Figure67Report) figure7() {
	den := 1/r.Rows[0].TPS - 1/r.Rows[1].TPS
	if r.Crosses = den > 0; r.Crosses {
		r.CrossoverTxns = (r.LFSScan - r.FFSScan).Seconds() / den
		r.CrossoverTime = time.Duration(r.CrossoverTxns / r.Rows[1].TPS * float64(time.Second))
	}
}

// Metrics adds the scan times, their ratio and the crossover to the TPS.
func (r *Figure67Report) Metrics() map[string]float64 {
	m := r.Runs.Metrics()
	m["ffs-scan-sim-ms"], m["lfs-scan-sim-ms"], m["lfs/ffs-scan-ratio"] =
		r.FFSScan.Seconds()*1000, r.LFSScan.Seconds()*1000, float64(r.LFSScan)/float64(r.FFSScan)
	m["crossover-txns"], m["crossover-sim-min"] = r.CrossoverTxns, r.CrossoverTime.Minutes()
	return m
}

// String formats Figures 6 and 7.
func (r *Figure67Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — Sequential (key-order) read after %d random-update txns (scale %.2f)\n", r.Opts.Txns, r.Opts.Scale)
	fmt.Fprintf(&b, "  %-16s %14s\n", "system", "scan elapsed")
	fmt.Fprintf(&b, "  %-16s %14s\n", "read-optimized", r.FFSScan.Truncate(time.Millisecond))
	fmt.Fprintf(&b, "  %-16s %14s\n", "LFS", r.LFSScan.Truncate(time.Millisecond))
	fmt.Fprintf(&b, "  %-16s %14s  (after the §5.4 coalescing cleaner)\n", "LFS coalesced", r.LFSScanCoalesced.Truncate(time.Millisecond))
	fmt.Fprintf(&b, "  LFS/read-optimized scan ratio: %.2f (paper: read-optimized ≈50%% faster, ratio ≈1.5); coalesced ratio: %.2f\n\n",
		float64(r.LFSScan)/float64(r.FFSScan), float64(r.LFSScanCoalesced)/float64(r.FFSScan))

	// Figure 7: total elapsed = txns/TPS + scan, the scan held at its
	// after-N-updates cost as the paper does, out to twice the crossover.
	b.WriteString("Figure 7 — Total elapsed time (transactions + one scan)\n")
	fmt.Fprintf(&b, "  %-10s %16s %16s\n", "txns", "read-optimized", "LFS")
	maxT := max(int(r.CrossoverTxns*2), r.Opts.Txns)
	for i := 0; i <= 8; i++ {
		n := maxT * i / 8
		total := func(row *tpcb.Snapshot, scan time.Duration) time.Duration {
			return (time.Duration(float64(n)/row.TPS*float64(time.Second)) + scan).Truncate(time.Second)
		}
		fmt.Fprintf(&b, "  %-10d %16s %16s\n", n, total(r.Rows[0], r.FFSScan), total(r.Rows[1], r.LFSScan))
	}
	if r.Crosses {
		fmt.Fprintf(&b, "  crossover: %.0f txns (%s of peak throughput); paper at full scale: %s\n",
			r.CrossoverTxns, r.CrossoverTime.Truncate(time.Second), paperCrossover)
	} else {
		fmt.Fprintf(&b, "  crossover: none within %d txns (read-optimized ahead at every N); paper at full scale: %s\n",
			maxT, paperCrossover)
	}
	return b.String()
}
