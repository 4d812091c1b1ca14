package figures

import (
	"fmt"
	"strings"
	"time"

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

// ----------------------------------------------------------- Ablation: fsync

// FsyncCell is one arm of the fsync ablation.
type FsyncCell struct {
	System      string
	InodeAtSync bool // false = data sync, vfs.File.Sync's contract
	TPS         float64
	// WritesPerTxn is device write operations per transaction over the
	// measured run.
	WritesPerTxn float64
}

// FsyncAblationReport is the sensitivity of Figure 4's margin to what
// File.Sync promises: {user-ffs, user-lfs} × {data sync, inode written at
// every Sync} at MPL 1. The inode costs the read-optimized file system a seek
// and a rotation in place and the log one more sequential block, so the
// margin between them depends on the rule more than on anything else — which
// is why both file systems must obey the same one.
type FsyncAblationReport struct {
	Opts Options
	// Cells holds user-ffs and user-lfs under data sync (Figure 4's bars),
	// then the same two with the inode at every Sync.
	Cells []FsyncCell
	// Margins of user-lfs over user-ffs, in percent, under each rule.
	DataSyncMargin, InodeAtSyncMargin float64
}

// Cell returns the arm for (system, inodeAtSync), or nil.
func (r *FsyncAblationReport) Cell(system string, inodeAtSync bool) *FsyncCell {
	for i := range r.Cells {
		if c := &r.Cells[i]; c.System == system && c.InodeAtSync == inodeAtSync {
			return c
		}
	}
	return nil
}

// AblationFsync runs the 2 × 2 on Figure 4's rigs.
func AblationFsync(opts Options) (*FsyncAblationReport, error) {
	opts.fill()
	rep := &FsyncAblationReport{Opts: opts}
	for _, inodeAtSync := range []bool{false, true} {
		for _, kind := range []string{"user-ffs", "user-lfs"} {
			ropts := opts.rigFor(kind)
			ropts.InodeAtSync = inodeAtSync
			rig, err := tpcb.BuildRig(ropts)
			if err != nil {
				return nil, fmt.Errorf("fsync ablation %s: %w", kind, err)
			}
			loaded := rig.DiskStats().Writes
			res, err := rig.RunMPL(ropts.Config, opts.Txns, 1)
			if err != nil {
				return nil, fmt.Errorf("fsync ablation %s: %w", kind, err)
			}
			rep.Cells = append(rep.Cells, FsyncCell{
				System: kind, InodeAtSync: inodeAtSync, TPS: res.TPS,
				WritesPerTxn: float64(rig.DiskStats().Writes-loaded) / float64(opts.Txns),
			})
		}
	}
	margin := func(inodeAtSync bool) float64 {
		return (rep.Cell("user-lfs", inodeAtSync).TPS/rep.Cell("user-ffs", inodeAtSync).TPS - 1) * 100
	}
	rep.DataSyncMargin, rep.InodeAtSyncMargin = margin(false), margin(true)
	return rep, nil
}

// String formats the ablation.
func (r *FsyncAblationReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — what File.Sync writes (MPL 1, scale %.2f, %d txns; paper's Figure 4 margin: +10%%)\n", r.Opts.Scale, r.Opts.Txns)
	fmt.Fprintf(&b, "  %-34s %9s %11s %9s %11s %14s\n", "rule", "ffs TPS", "writes/txn", "lfs TPS", "writes/txn", "LFS over FFS")
	for _, row := range []struct {
		name        string
		inodeAtSync bool
		margin      float64
	}{
		{"data sync (both file systems)", false, r.DataSyncMargin},
		{"inode at every Sync (ablation)", true, r.InodeAtSyncMargin},
	} {
		f, l := r.Cell("user-ffs", row.inodeAtSync), r.Cell("user-lfs", row.inodeAtSync)
		fmt.Fprintf(&b, "  %-34s %9.2f %11.2f %9.2f %11.2f %+13.1f%%\n", row.name, f.TPS, f.WritesPerTxn, l.TPS, l.WritesPerTxn, row.margin)
	}
	b.WriteString("  (the inode is a seek and a rotation in place, one more sequential block in a log: mixing the rules inflates the margin)\n")
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
// bound, and runs user-lfs for the cross-system comparison. Every run has
// half the paper's disk, as the benchmark's cleaning workload does: most
// kernel-lfs commit forces log one summary block, and on the paper's
// half-full disk its log would barely wrap, leaving the cleaner nothing to
// do.
func AblationCleaner(opts Options) (*CleanerAblationReport, error) {
	opts.fill()
	cfg := tpcb.ScaledConfig(opts.Scale)
	rep := &CleanerAblationReport{Opts: opts}

	run := func(kind, mode string) (*tpcb.Rig, tpcb.Result, error) {
		return opts.measure(kind+" "+mode, tpcb.RigOptions{Kind: kind, Config: cfg, Costs: opts.Costs,
			ExpectedTxns: opts.Txns, CleanerMode: mode, DiskScale: 0.5}, 1)
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
	// The idle rig's flush path still cleans synchronously when free
	// segments run out before an idle pass frees some: the rest of busy.
	fmt.Fprintf(&b, "  idle cleaner: %s busy = %s overlapped + %s stalled + %s in synchronous passes; write amplification %.2f×\n",
		r.IdleBusy.Truncate(time.Millisecond), r.IdleOverlap.Truncate(time.Millisecond),
		r.IdleStall.Truncate(time.Millisecond), (r.IdleBusy - r.IdleOverlap - r.IdleStall).Truncate(time.Millisecond), r.IdleWriteAmp)
	fmt.Fprintf(&b, "  user-level on LFS: %.2f TPS → kernel/user ratio %.2f sync, %.2f idle-overlapped\n",
		r.TPSUser, r.TPSSync/r.TPSUser, r.TPSIdle/r.TPSUser)
	return b.String()
}

// -------------------------------------------------- Ablation: commit volume

// CommitVolumeRow is one measured configuration of the commit-volume
// ablation. Counts are per committed transaction over the measured interval.
type CommitVolumeRow struct {
	System      string
	MPL         int
	GroupCommit int
	TPS         float64
	// CommitBytes is what the transaction manager handed to the commit path:
	// whole pages flushed (embedded) or WAL bytes logged (user level).
	// PatchBytes is what of it the commit forces wrote as patch records in
	// summary blocks instead of whole blocks (lfs.Stats.PatchBytes).
	CommitBytes, PatchBytes float64
	// Blocks is what reached the log device, every partial segment counted —
	// relation pages evicted or checkpointed as well as commit forces — and
	// its split by kind: Blocks = Data + Summary + InodePack + Pointer.
	Blocks, Data, Summary, InodePack, Pointer float64
	// Cleaner is the part of Blocks, of any kind, the cleaner's own flushes
	// wrote.
	Cleaner float64
}

// CommitBytesReport contrasts §4.3's whole-page commit flush with WAL's
// delta logging, in bytes handed to the commit path and in blocks that reach
// the log device, alone and under multiprogramming with group commit.
type CommitBytesReport struct {
	Opts Options
	Rows []CommitVolumeRow
}

// Row returns the row measured for (system, mpl, groupCommit), or nil.
func (r *CommitBytesReport) Row(system string, mpl, groupCommit int) *CommitVolumeRow {
	for i := range r.Rows {
		if row := &r.Rows[i]; row.System == system && row.MPL == mpl && row.GroupCommit == groupCommit {
			return row
		}
	}
	return nil
}

// AblationCommitBytes measures the write volume difference between the two
// transaction managers on LFS at MPL 1 and 8, force per commit and group
// commit ×8. (At MPL 1 nobody can join a batch, so each manager's two MPL 1
// rows coincide.)
func AblationCommitBytes(opts Options) (*CommitBytesReport, error) {
	opts.fill()
	rep := &CommitBytesReport{Opts: opts}
	for _, kind := range []string{"kernel-lfs", "user-lfs"} {
		for _, mpl := range []int{1, 8} {
			for _, gc := range []int{1, 8} {
				ropts := opts.rigFor(kind)
				ropts.GroupCommit = gc
				rig, err := tpcb.BuildRig(ropts)
				if err != nil {
					return nil, fmt.Errorf("commit volume %s: %w", kind, err)
				}
				before := rig.LFSStats() // the load phase logs blocks too
				res, err := rig.RunMPL(ropts.Config, opts.Txns, mpl)
				if err != nil {
					return nil, fmt.Errorf("commit volume %s mpl=%d gc=%d: %w", kind, mpl, gc, err)
				}
				st := rig.LFSStats()
				per := func(n int64) float64 { return float64(n) / float64(opts.Txns) }
				row := CommitVolumeRow{
					System: kind, MPL: mpl, GroupCommit: gc, TPS: res.TPS,
					PatchBytes: per(st.PatchBytes - before.PatchBytes),
					Blocks:     per(st.BlocksLogged - before.BlocksLogged),
					Summary:    per(st.PartialSegments - before.PartialSegments),
					InodePack:  per(st.InodePackBlocks - before.InodePackBlocks),
					Pointer:    per(st.PointerBlocks - before.PointerBlocks),
					Cleaner:    per(st.Cleaner.BlocksWritten - before.Cleaner.BlocksWritten),
				}
				row.Data = row.Blocks - row.Summary - row.InodePack - row.Pointer
				if rig.Core != nil {
					row.CommitBytes = per(rig.Core.Stats().BytesFlushed)
				} else {
					row.CommitBytes = per(rig.WALStats().BytesLogged)
				}
				rep.Rows = append(rep.Rows, row)
			}
		}
	}
	return rep, nil
}

// String formats the ablation.
func (r *CommitBytesReport) String() string {
	var b strings.Builder
	b.WriteString("Ablation — commit volume (§4.3: whole pages at commit vs logging only the updated bytes)\n")
	fmt.Fprintf(&b, "  %-10s %4s %3s %8s %13s %12s %11s = %6s + %7s + %10s + %7s %9s\n",
		"system", "MPL", "gc", "TPS", "commit B/txn", "patch B/txn", "blocks/txn", "data", "summary", "inode pack", "pointer", "(cleaner)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s %4d %3d %8.2f %13.0f %12.0f %11.2f   %6.2f   %7.2f   %10.2f   %7.2f %9.2f\n",
			row.System, row.MPL, row.GroupCommit, row.TPS, row.CommitBytes, row.PatchBytes, row.Blocks,
			row.Data, row.Summary, row.InodePack, row.Pointer, row.Cleaner)
	}
	k, u := r.Row("kernel-lfs", 1, 1), r.Row("user-lfs", 1, 1)
	fmt.Fprintf(&b, "  MPL 1: the embedded manager hands %.0f× the bytes to its commit path, patches %.1f× the bytes and puts %.1f× the blocks on the device\n",
		k.CommitBytes/u.CommitBytes, k.PatchBytes/u.PatchBytes, k.Blocks/u.Blocks)
	k, u = r.Row("kernel-lfs", 8, 8), r.Row("user-lfs", 8, 8)
	fmt.Fprintf(&b, "  MPL 8, group commit ×8: %.0f× the bytes, %.1f× the patch bytes, %.1f× the blocks\n",
		k.CommitBytes/u.CommitBytes, k.PatchBytes/u.PatchBytes, k.Blocks/u.Blocks)
	return b.String()
}
