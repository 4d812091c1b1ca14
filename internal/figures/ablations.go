package figures

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/lfs"
	"repro/internal/sim"
	"repro/internal/tpcb"
)

// ------------------------------------------------------------ Ablation: sync

// SyncAblationReport quantifies §5.1's synchronization analysis: without
// hardware test-and-set, user-level locking costs two system calls per
// operation; with fast user-level mutual exclusion [1] the user/kernel gap
// closes.
type SyncAblationReport struct {
	Opts Options
	// TPS for (user, kernel) under each cost model.
	SlowUser, SlowKernel float64 // no test-and-set (Sprite)
	FastUser, FastKernel float64 // fast user-level sync
}

// AblationSync runs user-lfs and kernel-lfs under both cost models.
func AblationSync(opts Options) (*SyncAblationReport, error) {
	opts.fill()
	cfg := tpcb.ScaledConfig(opts.Scale)
	rep := &SyncAblationReport{Opts: opts}
	run := func(kind string, costs sim.CostModel) (float64, error) {
		_, res, err := opts.measure(kind, tpcb.RigOptions{Kind: kind, Config: cfg, Costs: costs, ExpectedTxns: opts.Txns}, 1)
		return res.TPS, err
	}
	var err error
	if rep.SlowUser, err = run("user-lfs", sim.SpriteCosts()); err != nil {
		return nil, err
	}
	if rep.SlowKernel, err = run("kernel-lfs", sim.SpriteCosts()); err != nil {
		return nil, err
	}
	if rep.FastUser, err = run("user-lfs", sim.FastSyncCosts()); err != nil {
		return nil, err
	}
	if rep.FastKernel, err = run("kernel-lfs", sim.FastSyncCosts()); err != nil {
		return nil, err
	}
	return rep, nil
}

// String formats the ablation.
func (r *SyncAblationReport) String() string {
	var b strings.Builder
	b.WriteString("Ablation — synchronization cost (§5.1: no hardware test-and-set doubles user-level sync)\n")
	fmt.Fprintf(&b, "  %-26s %10s %10s %12s\n", "cost model", "user TPS", "kernel TPS", "user gain")
	fmt.Fprintf(&b, "  %-26s %10.2f %10.2f %+11.2f%%\n", "Sprite (2 syscalls/sync)", r.SlowUser, r.SlowKernel, 0.0)
	fmt.Fprintf(&b, "  %-26s %10.2f %10.2f %+11.2f%%\n", "fast user sync [1]", r.FastUser, r.FastKernel,
		(r.FastUser/r.SlowUser-1)*100)
	b.WriteString("  (the user-level system gains from fast sync; the kernel system is unaffected)\n")
	return b.String()
}

// -------------------------------------------------------- Ablation: cleaner

// CleanerAblationReport quantifies §5.4: the synchronous in-kernel cleaner
// stalls the workload (its I/O sits on the critical path); the measured
// idle-overlapped background cleaner hides that I/O in the device's idle
// windows and approaches the analytic no-stall bound.
type CleanerAblationReport struct {
	Opts Options

	// Synchronous in-kernel cleaner (measured baseline).
	SyncElapsed time.Duration
	SyncBusy    time.Duration // cleaner device time, all of it on the critical path
	TPSSync     float64

	// Idle-overlapped background cleaner (measured).
	IdleElapsed time.Duration
	IdleBusy    time.Duration // total cleaner device time
	IdleOverlap time.Duration // absorbed by foreground idle windows
	IdleStall   time.Duration // residue that stalled the workload
	TPSIdle     float64
	// IdleWriteAmp is total logged blocks over foreground logged blocks in
	// the idle run (1.0 = the cleaner added no writes).
	IdleWriteAmp float64

	// Analytic no-stall bound derived from the synchronous run
	// (elapsed − cleaner busy): the ceiling §5.4's design aims at.
	BoundElapsed time.Duration
	TPSBound     float64

	// User-level system on LFS under the same rig — the configuration the
	// paper's Figure 4 shows the synchronous kernel cleaner losing to.
	TPSUser float64
}

// AblationCleaner measures kernel-lfs with the synchronous cleaner and with
// the idle-overlapped background cleaner, derives the analytic no-stall
// bound, and runs user-lfs for the cross-system comparison.
func AblationCleaner(opts Options) (*CleanerAblationReport, error) {
	opts.fill()
	cfg := tpcb.ScaledConfig(opts.Scale)
	rep := &CleanerAblationReport{Opts: opts}

	run := func(kind, mode string) (*tpcb.Rig, tpcb.Result, error) {
		return opts.measure(kind+" "+mode, tpcb.RigOptions{Kind: kind, Config: cfg, Costs: opts.Costs,
			ExpectedTxns: opts.Txns, CleanerMode: mode, CleanBatch: opts.CleanBatch}, 1)
	}

	rigSync, resSync, err := run("kernel-lfs", "sync")
	if err != nil {
		return nil, err
	}
	rep.SyncElapsed = resSync.Elapsed
	rep.SyncBusy = rigSync.LFSStats().Cleaner.BusyTime
	rep.TPSSync = resSync.TPS

	rigIdle, resIdle, err := run("kernel-lfs", "idle")
	if err != nil {
		return nil, err
	}
	st := rigIdle.LFSStats()
	rep.IdleElapsed = resIdle.Elapsed
	rep.IdleBusy = st.Cleaner.BusyTime
	rep.IdleOverlap = st.Cleaner.OverlapTime
	rep.IdleStall = st.Cleaner.StallTime
	rep.TPSIdle = resIdle.TPS
	rep.IdleWriteAmp = st.WriteAmplification()

	rep.BoundElapsed = rep.SyncElapsed - rep.SyncBusy
	if rep.BoundElapsed > 0 {
		rep.TPSBound = float64(opts.Txns) / rep.BoundElapsed.Seconds()
	}

	_, resUser, err := run("user-lfs", "sync")
	if err != nil {
		return nil, err
	}
	rep.TPSUser = resUser.TPS
	return rep, nil
}

// String formats the ablation.
func (r *CleanerAblationReport) String() string {
	var b strings.Builder
	b.WriteString("Ablation — cleaner placement (§5.4: take the cleaner off the critical path)\n")
	fmt.Fprintf(&b, "  %-34s %12s %8s %15s\n", "configuration", "elapsed", "TPS", "cleaner stall")
	fmt.Fprintf(&b, "  %-34s %12s %8.2f %14.1f%%\n", "synchronous in-kernel (measured)",
		r.SyncElapsed.Truncate(time.Millisecond), r.TPSSync, float64(r.SyncBusy)/float64(r.SyncElapsed)*100)
	fmt.Fprintf(&b, "  %-34s %12s %8.2f %14.1f%%\n", "idle-overlapped (measured)",
		r.IdleElapsed.Truncate(time.Millisecond), r.TPSIdle, float64(r.IdleStall)/float64(r.IdleElapsed)*100)
	fmt.Fprintf(&b, "  %-34s %12s %8.2f %15s\n", "no-stall bound (analytic)",
		r.BoundElapsed.Truncate(time.Millisecond), r.TPSBound, "0.0%")
	fmt.Fprintf(&b, "  idle cleaner: %s busy = %s overlapped + %s stalled; write amplification %.2f×\n",
		r.IdleBusy.Truncate(time.Millisecond), r.IdleOverlap.Truncate(time.Millisecond),
		r.IdleStall.Truncate(time.Millisecond), r.IdleWriteAmp)
	fmt.Fprintf(&b, "  user-level on LFS: %.2f TPS → kernel/user ratio %.2f sync, %.2f idle-overlapped\n",
		r.TPSUser, r.TPSSync/r.TPSUser, r.TPSIdle/r.TPSUser)
	return b.String()
}

// --------------------------------------------------- Ablation: group commit

// GroupCommitReport shows the log-force amortization of group commit (§4.4).
type GroupCommitReport struct {
	Opts    Options
	Batches []int
	UserTPS []float64
	Forces  []int64
}

// AblationGroupCommit sweeps the user-level system's commit batch size.
// (At MPL=1 nobody can join the kernel system's batch, so every commit
// flushes alone whatever the batch size; the user-level WAL, whose
// single-client path defers the force itself, is where the effect shows.
// The MPL sweep measures group commit on both.)
func AblationGroupCommit(opts Options) (*GroupCommitReport, error) {
	opts.fill()
	cfg := tpcb.ScaledConfig(opts.Scale)
	rep := &GroupCommitReport{Opts: opts, Batches: []int{1, 4, 16}}
	for _, batch := range rep.Batches {
		rig, res, err := opts.measure(fmt.Sprintf("user-lfs batch=%d", batch), tpcb.RigOptions{Kind: "user-lfs", Config: cfg, Costs: opts.Costs,
			GroupCommit: batch, ExpectedTxns: opts.Txns}, 1)
		if err != nil {
			return nil, err
		}
		rep.UserTPS = append(rep.UserTPS, res.TPS)
		rep.Forces = append(rep.Forces, rig.WALStats().Forces)
	}
	return rep, nil
}

// String formats the ablation.
func (r *GroupCommitReport) String() string {
	var b strings.Builder
	b.WriteString("Ablation — group commit (§4.4: amortize the commit force)\n")
	fmt.Fprintf(&b, "  %-8s %10s %12s\n", "batch", "user TPS", "log forces")
	for i, batch := range r.Batches {
		fmt.Fprintf(&b, "  %-8d %10.2f %12d\n", batch, r.UserTPS[i], r.Forces[i])
	}
	return b.String()
}

// -------------------------------------------------- Ablation: commit volume

// CommitBytesReport contrasts §4.3's whole-page commit flush with WAL's
// delta logging.
type CommitBytesReport struct {
	Opts Options
	// KernelBytesPerTxn: whole pages forced at commit by the embedded TM.
	KernelBytesPerTxn float64
	// UserLogBytesPerTxn: bytes of before/after images in the WAL.
	UserLogBytesPerTxn float64
	// TPS of both systems, showing the paper's claim that the extra
	// sequential commit bytes barely matter next to the random reads.
	KernelTPS, UserTPS float64
}

// AblationCommitBytes measures the write volume difference.
func AblationCommitBytes(opts Options) (*CommitBytesReport, error) {
	opts.fill()
	cfg := tpcb.ScaledConfig(opts.Scale)
	rep := &CommitBytesReport{Opts: opts}

	rigK, resK, err := opts.measure("kernel-lfs", tpcb.RigOptions{Kind: "kernel-lfs", Config: cfg, Costs: opts.Costs, ExpectedTxns: opts.Txns}, 1)
	if err != nil {
		return nil, err
	}
	rep.KernelBytesPerTxn = float64(rigK.Core.Stats().BytesFlushed) / float64(opts.Txns)
	rep.KernelTPS = resK.TPS

	rigU, resU, err := opts.measure("user-lfs", tpcb.RigOptions{Kind: "user-lfs", Config: cfg, Costs: opts.Costs, ExpectedTxns: opts.Txns}, 1)
	if err != nil {
		return nil, err
	}
	rep.UserLogBytesPerTxn = float64(rigU.WALStats().BytesLogged) / float64(opts.Txns)
	rep.UserTPS = resU.TPS
	return rep, nil
}

// String formats the ablation.
func (r *CommitBytesReport) String() string {
	var b strings.Builder
	b.WriteString("Ablation — commit volume (§4.3: whole pages at commit vs logging only the updated bytes)\n")
	fmt.Fprintf(&b, "  embedded (whole pages): %10.0f bytes/txn   %.2f TPS\n", r.KernelBytesPerTxn, r.KernelTPS)
	fmt.Fprintf(&b, "  WAL (byte deltas):      %10.0f bytes/txn   %.2f TPS\n", r.UserLogBytesPerTxn, r.UserTPS)
	fmt.Fprintf(&b, "  ratio: %.0f× more bytes forced at commit by the embedded system\n",
		r.KernelBytesPerTxn/r.UserLogBytesPerTxn)
	return b.String()
}

// ----------------------------------------------- Ablation: cleaner policies

// CleanerPolicyReport compares greedy vs cost-benefit victim selection.
type CleanerPolicyReport struct {
	Opts     Options
	Policies []string
	TPS      []float64
	Copied   []int64 // live blocks copied (write amplification)
	Cleaned  []int64 // segments reclaimed
}

// AblationCleanerPolicy runs kernel-lfs TPC-B under both policies.
func AblationCleanerPolicy(opts Options) (*CleanerPolicyReport, error) {
	opts.fill()
	cfg := tpcb.ScaledConfig(opts.Scale)
	rep := &CleanerPolicyReport{Opts: opts}
	for _, pol := range []lfs.CleanerPolicy{lfs.Greedy, lfs.CostBenefit} {
		rig, res, err := opts.measure("kernel-lfs "+pol.String(), tpcb.RigOptions{Kind: "kernel-lfs", Config: cfg, Costs: opts.Costs,
			Policy: pol, ExpectedTxns: opts.Txns}, 1)
		if err != nil {
			return nil, err
		}
		st := rig.LFSStats().Cleaner
		rep.Policies = append(rep.Policies, pol.String())
		rep.TPS = append(rep.TPS, res.TPS)
		rep.Copied = append(rep.Copied, st.BlocksCopied)
		rep.Cleaned = append(rep.Cleaned, st.SegmentsCleaned)
	}
	return rep, nil
}

// String formats the ablation.
func (r *CleanerPolicyReport) String() string {
	var b strings.Builder
	b.WriteString("Ablation — cleaner victim selection policy\n")
	fmt.Fprintf(&b, "  %-14s %8s %14s %12s\n", "policy", "TPS", "blocks copied", "segs cleaned")
	for i := range r.Policies {
		fmt.Fprintf(&b, "  %-14s %8.2f %14d %12d\n", r.Policies[i], r.TPS[i], r.Copied[i], r.Cleaned[i])
	}
	return b.String()
}
