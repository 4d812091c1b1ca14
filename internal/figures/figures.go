// Package figures regenerates every result figure of the paper's evaluation
// (§5, Figures 4–7) plus the ablations DESIGN.md calls out. Each function
// builds fresh simulated rigs, runs the measured workloads, and returns a
// report that prints the same series the paper plots, side by side with the
// paper's own numbers.
package figures

import (
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
	// Scale multiplies the paper's TPC-B sizing (1.0 = 1,000,000
	// accounts). Default 0.05.
	Scale float64
	// Txns is the number of transactions per measured run (the paper ran
	// its throughput tests to steady state and the SCAN test after
	// 100,000 transactions). Default 5000.
	Txns int
	// Costs is the CPU cost model (default sim.SpriteCosts()).
	Costs sim.CostModel
	// CleanerMode overrides the LFS cleaning discipline for the figure rigs:
	// "sync" or "idle" (background cleaning charged against foreground idle
	// windows). When empty, each rig uses its natural mode: the kernel-lfs
	// system cleans in idle-overlapped mode (its cleaner lives below the
	// device queue and sees idle windows), the user-level systems clean
	// synchronously (§5.4: a user-space cleaner cannot observe device
	// idleness and serializes with the application).
	CleanerMode string
	// MPLs are the multiprogramming levels the MPL sweep measures
	// (default 1, 2, 4, 8, 16, 64, 256).
	MPLs []int
	// GroupCommit is the batch size for the group-commit arm of the MPL
	// sweep (default 8); the other arm always forces per commit.
	GroupCommit int
	// LogSegmentBytes bounds the user-level systems' WAL segment size
	// (0 = the wal default).
	LogSegmentBytes int64
	// Scanners and ScansEach size the mixed OLTP + scan sweep (Scan):
	// Scanners concurrent readers each performing ScansEach full account
	// scans alongside the writers. Defaults 2 and 1.
	Scanners  int
	ScansEach int
}

// rigLogOptions copies the WAL segment knob into a rig configuration.
func (o Options) rigLogOptions(r tpcb.RigOptions) tpcb.RigOptions {
	r.LogSegmentBytes = o.LogSegmentBytes
	return r
}

// rigFor is the rig recipe the three-system sweeps share: kind at the
// figure's scale, sized for its transaction count, each system cleaning in
// its natural mode unless Options.CleanerMode overrides it — kernel-lfs
// idle-overlapped, user-lfs synchronously, and user-ffs, which has no
// cleaner, taking no mode at all. A sweep sets what it varies (group
// commit, tracing, disk headroom) on the result and builds it.
func (o Options) rigFor(kind string) tpcb.RigOptions {
	r := o.rigLogOptions(tpcb.RigOptions{
		Kind: kind, Config: tpcb.ScaledConfig(o.Scale), Costs: o.Costs, ExpectedTxns: o.Txns,
	})
	if kind != "user-ffs" {
		r.CleanerMode = o.CleanerMode
		if r.CleanerMode == "" && kind == "kernel-lfs" {
			r.CleanerMode = "idle"
		}
	}
	return r
}

// measure is one cell of every TPC-B sweep: build the rig, run the sweep's
// transaction count at mpl, and hand back the rig (for its counters) with the
// result. what labels the cell in the error.
func (o Options) measure(what string, r tpcb.RigOptions, mpl int) (*tpcb.Rig, tpcb.Result, error) {
	rig, err := tpcb.BuildRig(o.rigLogOptions(r))
	if err != nil {
		return nil, tpcb.Result{}, fmt.Errorf("%s: %w", what, err)
	}
	res, err := rig.RunMPL(r.Config, o.Txns, mpl)
	if err != nil {
		return nil, tpcb.Result{}, fmt.Errorf("%s mpl=%d: %w", what, mpl, err)
	}
	return rig, res, nil
}

func (o *Options) fill() {
	if o.Scale == 0 {
		o.Scale = 0.05
	}
	if o.Txns == 0 {
		o.Txns = 5000
	}
	if o.Costs == (sim.CostModel{}) {
		o.Costs = sim.SpriteCosts()
	}
	if len(o.MPLs) == 0 {
		o.MPLs = []int{1, 2, 4, 8, 16, 64, 256}
	}
	if o.GroupCommit == 0 {
		o.GroupCommit = 8
	}
	if o.Scanners == 0 {
		o.Scanners = 2
	}
	if o.ScansEach == 0 {
		o.ScansEach = 1
	}
}

// ---------------------------------------------------------------- Figure 4

// Figure4Row is one bar of Figure 4.
type Figure4Row struct {
	System  string
	TPS     float64
	Elapsed time.Duration
	// CleanerShare is the fraction of elapsed time the LFS cleaner
	// consumed (0 for the read-optimized system).
	CleanerShare float64
}

// Figure4Report reproduces Figure 4: transaction performance of the three
// configurations.
type Figure4Report struct {
	Opts Options
	Rows []Figure4Row
}

// Figure4 runs the modified TPC-B on the three systems.
func Figure4(opts Options) (*Figure4Report, error) {
	opts.fill()
	rep := &Figure4Report{Opts: opts}
	for _, kind := range []string{"user-ffs", "user-lfs", "kernel-lfs"} {
		rig, res, err := opts.measure("figure 4 "+kind, opts.rigFor(kind), 1)
		if err != nil {
			return nil, err
		}
		row := Figure4Row{System: kind, TPS: res.TPS, Elapsed: res.Elapsed}
		if st := rig.LFSStats(); st != nil {
			// Only cleaner time on the critical path counts: background
			// passes subtract what the idle windows absorbed.
			cl := st.Cleaner
			row.CleanerShare = float64(cl.BusyTime-cl.OverlapTime) / float64(res.Elapsed)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// String formats the report like the paper's Figure 4 bars.
func (r *Figure4Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 — Transaction Performance (modified TPC-B, MPL=1, scale %.2f, %d txns)\n", r.Opts.Scale, r.Opts.Txns)
	fmt.Fprintf(&b, "  %-12s %8s %12s %14s   %s\n", "system", "TPS", "elapsed", "cleaner-share", "paper")
	paper := map[string]string{"user-ffs": "12.3 TPS", "user-lfs": "13.6 TPS", "kernel-lfs": "≈ user-lfs"}
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12s %8.2f %12s %13.1f%%   %s\n",
			row.System, row.TPS, row.Elapsed.Truncate(time.Millisecond), row.CleanerShare*100, paper[row.System])
	}
	if len(r.Rows) == 3 {
		lfsWin := (r.Rows[1].TPS/r.Rows[0].TPS - 1) * 100
		kernelRatio := r.Rows[2].TPS / r.Rows[1].TPS
		fmt.Fprintf(&b, "  LFS over read-optimized: %+.1f%% (paper: +10%%); kernel/user on LFS: %.2f (paper: ≈1, user slowed by 2× sync syscalls)\n",
			lfsWin, kernelRatio)
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 5

// Figure5Row compares one workload on the two kernels.
type Figure5Row struct {
	Workload    string
	NormalK     time.Duration // unmodified kernel
	TxnK        time.Duration // kernel with embedded transaction support
	DeltaPct    float64
	PaperClaims string
}

// Figure5Report reproduces Figure 5: impact of the kernel transaction
// implementation on non-transaction workloads.
type Figure5Report struct {
	Rows []Figure5Row
}

// newWorkloadLFS builds a 96 MB LFS for the non-transaction workloads.
func newWorkloadLFS() (*lfs.FS, *sim.Clock, error) {
	clk := sim.NewClock()
	model := sim.RZ55Model()
	model.NumBlocks = 24576
	dev := disk.New(model, clk)
	fsys, err := lfs.Format(dev, clk, lfs.Options{CacheBlocks: 2048})
	return fsys, clk, err
}

// Figure5 runs Andrew, Bigfile, and the user-level transaction system on an
// unmodified kernel and on the transaction-enabled kernel.
func Figure5(opts Options) (*Figure5Report, error) {
	opts.fill()
	rep := &Figure5Report{}

	// Andrew.
	fsA, clkA, err := newWorkloadLFS()
	if err != nil {
		return nil, err
	}
	andrewPlain, err := workload.RunAndrew(fsA, clkA, workload.DefaultAndrew())
	if err != nil {
		return nil, err
	}
	fsB, clkB, err := newWorkloadLFS()
	if err != nil {
		return nil, err
	}
	andrewTxn, err := workload.RunAndrew(core.New(fsB, clkB, core.Options{Costs: opts.Costs}).AsFileSystem(), clkB, workload.DefaultAndrew())
	if err != nil {
		return nil, err
	}
	rep.add("ANDREW", andrewPlain.Total(), andrewTxn.Total())

	// Bigfile.
	fsC, clkC, err := newWorkloadLFS()
	if err != nil {
		return nil, err
	}
	bigPlain, err := workload.RunBigfile(fsC, clkC, workload.DefaultBigfile())
	if err != nil {
		return nil, err
	}
	fsD, clkD, err := newWorkloadLFS()
	if err != nil {
		return nil, err
	}
	bigTxn, err := workload.RunBigfile(core.New(fsD, clkD, core.Options{Costs: opts.Costs}).AsFileSystem(), clkD, workload.DefaultBigfile())
	if err != nil {
		return nil, err
	}
	rep.add("BIGFILE", bigPlain.Total(), bigTxn.Total())

	// User-TP: the user-level transaction system, which uses none of the
	// kernel transaction machinery. On the transaction kernel its file
	// accesses still pass through the embedded manager's lock-necessity
	// check.
	userTP := func(asTxnKernel bool) (time.Duration, error) {
		cfg := tpcb.ScaledConfig(opts.Scale / 2)
		n := opts.Txns / 5
		if n < 200 {
			n = 200
		}
		clk := sim.NewClock()
		dev := disk.New(tpcb.DiskModelFor(cfg, n), clk)
		cache := tpcb.CacheBlocksFor(cfg, n)
		base, err := lfs.Format(dev, clk, lfs.Options{CacheBlocks: cache})
		if err != nil {
			return 0, err
		}
		var fsys vfs.FileSystem = base
		if asTxnKernel {
			fsys = core.New(base, clk, core.Options{Costs: opts.Costs}).AsFileSystem()
		}
		env, err := libtp.NewEnv(fsys, clk, libtp.Options{CacheBlocks: cache, Costs: opts.Costs})
		if err != nil {
			return 0, err
		}
		sys := tpcb.NewUserSystem(env, clk, opts.Costs)
		if err := sys.Load(cfg); err != nil {
			return 0, err
		}
		res, err := (&tpcb.Rig{Clock: clk, Sys: sys}).RunMPL(cfg, n, 1)
		if err != nil {
			return 0, err
		}
		return res.Elapsed, nil
	}
	tpPlain, err := userTP(false)
	if err != nil {
		return nil, err
	}
	tpTxn, err := userTP(true)
	if err != nil {
		return nil, err
	}
	rep.add("USER-TP", tpPlain, tpTxn)
	return rep, nil
}

func (r *Figure5Report) add(name string, plain, txn time.Duration) {
	r.Rows = append(r.Rows, Figure5Row{
		Workload:    name,
		NormalK:     plain,
		TxnK:        txn,
		DeltaPct:    (float64(txn)/float64(plain) - 1) * 100,
		PaperClaims: "within 1–2%",
	})
}

// String formats the report like Figure 5.
func (r *Figure5Report) String() string {
	var b strings.Builder
	b.WriteString("Figure 5 — Non-Transaction Performance (normal kernel vs transaction kernel)\n")
	fmt.Fprintf(&b, "  %-10s %14s %14s %9s   %s\n", "workload", "normal", "txn-kernel", "delta", "paper")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s %14s %14s %+8.2f%%   %s\n",
			row.Workload, row.NormalK.Truncate(time.Millisecond), row.TxnK.Truncate(time.Millisecond), row.DeltaPct, row.PaperClaims)
	}
	return b.String()
}

// ------------------------------------------------------------- Figures 6/7

// Figure67Report reproduces the SCAN test (Figure 6) and the combined
// elapsed-time crossover (Figure 7).
type Figure67Report struct {
	Opts Options
	// Per-system transaction rates (from the update phase).
	FFSTPS, LFSTPS float64
	// Sequential key-order scan times after the random updates.
	FFSScan, LFSScan time.Duration
	// LFSScanCoalesced is the LFS scan after running the coalescing
	// cleaner (the §5.3/§5.4 enhancement) — the "promising solution" the
	// paper's conclusion points to.
	LFSScanCoalesced time.Duration
	// ScanPenalty = LFSScan/FFSScan (paper: read-optimized ~50% faster).
	ScanPenalty float64
	// CrossoverTxns is where the two total-elapsed lines intersect
	// (paper: ≈134,300 at full scale, ≈2h40m of peak throughput). Crosses
	// is false, and both are zero, when they do not: the read-optimized
	// system is no slower per transaction, so it stays ahead at every N.
	Crosses        bool
	CrossoverTxns  float64
	CrossoverTime  time.Duration
	Series         []Figure7Point
	PaperCrossover string
}

// Figure7Point is one x-position of Figure 7.
type Figure7Point struct {
	Txns     int
	FFSTotal time.Duration
	LFSTotal time.Duration
}

// Figure67 runs the SCAN experiment: load, run the update phase, remount
// (cold cache), then read the account relation in key order.
func Figure67(opts Options) (*Figure67Report, error) {
	opts.fill()
	cfg := tpcb.ScaledConfig(opts.Scale)
	rep := &Figure67Report{Opts: opts, PaperCrossover: "≈134,300 txns (≈2h40m at 13.6 TPS)"}

	type sysResult struct {
		tps           float64
		scan          time.Duration
		scanCoalesced time.Duration
	}
	runOne := func(kind string) (sysResult, error) {
		rig, res, err := opts.measure(kind, tpcb.RigOptions{Kind: kind, Config: cfg, Costs: opts.Costs, ExpectedTxns: opts.Txns}, 1)
		if err != nil {
			return sysResult{}, err
		}
		// Cold cache: remount the file system from the device.
		start := rig.Clock.Now()
		// Cursor CPU: the paper's scan pushes every record through the
		// record layer; charge half a keyed record operation per record
		// (a cursor-next is cheaper than a search).
		scanCPU := func(records int64) {
			rig.Clock.Advance(time.Duration(records) * opts.Costs.RecordOp / 2)
		}
		switch kind {
		case "user-ffs":
			fsys, err := ffs.Mount(rig.Dev, rig.Clock, ffs.Options{CacheBlocks: 256})
			if err != nil {
				return sysResult{}, err
			}
			start = rig.Clock.Now() // exclude mount time
			n, err := tpcb.ScanAccountsOn(fsys)
			if err != nil {
				return sysResult{}, err
			}
			scanCPU(n)
		case "user-lfs":
			fsys, err := lfs.Mount(rig.Dev, rig.Clock, lfs.Options{CacheBlocks: 256})
			if err != nil {
				return sysResult{}, err
			}
			start = rig.Clock.Now()
			n, err := tpcb.ScanAccountsOn(fsys)
			if err != nil {
				return sysResult{}, err
			}
			scanCPU(n)
			scan := rig.Clock.Now() - start

			// The §5.3/§5.4 enhancement: coalesce the fragmented account
			// file with the cleaner machinery, then scan again cold.
			if err := fsys.Coalesce(tpcb.AccountPath); err != nil {
				return sysResult{}, err
			}
			if err := fsys.Sync(); err != nil {
				return sysResult{}, err
			}
			fs3, err := lfs.Mount(rig.Dev, rig.Clock, lfs.Options{CacheBlocks: 256})
			if err != nil {
				return sysResult{}, err
			}
			start2 := rig.Clock.Now()
			n2, err := tpcb.ScanAccountsOn(fs3)
			if err != nil {
				return sysResult{}, err
			}
			scanCPU(n2)
			return sysResult{tps: res.TPS, scan: scan, scanCoalesced: rig.Clock.Now() - start2}, nil
		}
		return sysResult{tps: res.TPS, scan: rig.Clock.Now() - start}, nil
	}

	ffsRes, err := runOne("user-ffs")
	if err != nil {
		return nil, fmt.Errorf("figure 6 ffs: %w", err)
	}
	lfsRes, err := runOne("user-lfs")
	if err != nil {
		return nil, fmt.Errorf("figure 6 lfs: %w", err)
	}
	rep.FFSTPS, rep.FFSScan = ffsRes.tps, ffsRes.scan
	rep.LFSTPS, rep.LFSScan = lfsRes.tps, lfsRes.scan
	rep.LFSScanCoalesced = lfsRes.scanCoalesced
	rep.ScanPenalty = float64(lfsRes.scan) / float64(ffsRes.scan)

	// Figure 7: total elapsed = txns/TPS + scan (scan held at its
	// after-N-updates cost, as the paper does). Crossover where the lines
	// meet.
	rep.figure7()
	return rep, nil
}

// figure7 derives the crossover and the plotted series from the measured
// rates and scan times.
func (r *Figure67Report) figure7() {
	den := 1/r.FFSTPS - 1/r.LFSTPS
	if r.Crosses = den > 0; r.Crosses {
		r.CrossoverTxns = (r.LFSScan - r.FFSScan).Seconds() / den
		r.CrossoverTime = time.Duration(r.CrossoverTxns / r.LFSTPS * float64(time.Second))
	}
	maxT := int(r.CrossoverTxns * 2)
	if maxT < r.Opts.Txns {
		maxT = r.Opts.Txns
	}
	for i := 0; i <= 8; i++ {
		n := maxT * i / 8
		r.Series = append(r.Series, Figure7Point{
			Txns:     n,
			FFSTotal: time.Duration(float64(n)/r.FFSTPS*float64(time.Second)) + r.FFSScan,
			LFSTotal: time.Duration(float64(n)/r.LFSTPS*float64(time.Second)) + r.LFSScan,
		})
	}
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
		r.ScanPenalty, float64(r.LFSScanCoalesced)/float64(r.FFSScan))

	b.WriteString("Figure 7 — Total elapsed time (transactions + one scan)\n")
	fmt.Fprintf(&b, "  %-10s %16s %16s\n", "txns", "read-optimized", "LFS")
	for _, p := range r.Series {
		fmt.Fprintf(&b, "  %-10d %16s %16s\n", p.Txns, p.FFSTotal.Truncate(time.Second), p.LFSTotal.Truncate(time.Second))
	}
	if r.Crosses {
		fmt.Fprintf(&b, "  crossover: %.0f txns (%s of peak throughput); paper at full scale: %s\n",
			r.CrossoverTxns, r.CrossoverTime.Truncate(time.Second), r.PaperCrossover)
	} else {
		fmt.Fprintf(&b, "  crossover: none within %d txns (read-optimized ahead at every N); paper at full scale: %s\n",
			r.Series[len(r.Series)-1].Txns, r.PaperCrossover)
	}
	return b.String()
}
