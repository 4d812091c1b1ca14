package figures

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/tpcb"
)

// SyncAblationReport quantifies §5.1's synchronization analysis: without
// hardware test-and-set, user-level locking costs two system calls per
// operation; with fast user-level mutual exclusion [1] the user/kernel gap
// closes. Its rows are user-lfs and kernel-lfs under the Sprite cost model,
// then the same two with fast user-level sync.
type SyncAblationReport struct{ Runs }

// AblationSync runs the four rows, each cleaning synchronously.
func AblationSync(opts Options) (*SyncAblationReport, error) {
	opts.fill()
	var cells []cell
	for _, costs := range []sim.CostModel{sim.SpriteCosts(), sim.FastSyncCosts()} {
		for _, kind := range systems[1:] {
			r := opts.rig(kind)
			r.Costs = costs
			cells = append(cells, cell{rig: r, mpl: 1})
		}
	}
	return measure[SyncAblationReport](opts, cells)
}

// String formats the ablation.
func (r *SyncAblationReport) String() string {
	slowUser, slowKernel, fastUser, fastKernel := r.Rows[0].TPS, r.Rows[1].TPS, r.Rows[2].TPS, r.Rows[3].TPS
	var b strings.Builder
	b.WriteString("Ablation — synchronization cost (§5.1: no hardware test-and-set doubles user-level sync)\n")
	fmt.Fprintf(&b, "  %-26s %10s %10s %12s\n", "cost model", "user TPS", "kernel TPS", "user gain")
	fmt.Fprintf(&b, "  %-26s %10.2f %10.2f %+11.2f%%\n", "Sprite (2 syscalls/sync)", slowUser, slowKernel, 0.0)
	fmt.Fprintf(&b, "  %-26s %10.2f %10.2f %+11.2f%%\n", "fast user sync [1]", fastUser, fastKernel, (fastUser/slowUser-1)*100)
	b.WriteString("  (the user-level system gains from fast sync; the kernel system is unaffected)\n")
	return b.String()
}

// FsyncAblationReport is the sensitivity of Figure 4's margin to what
// File.Sync promises. The inode costs the read-optimized file system a seek
// and a rotation in place and the log one more sequential block, so the
// margin between them depends on the rule more than on anything else — which
// is why both file systems must obey the same one. Its rows are user-ffs and
// user-lfs at MPL 1 under data sync (Figure 4's bars), then the same two with
// the inode written at every Sync.
type FsyncAblationReport struct{ Runs }

// AblationFsync runs the 2 × 2 on Figure 4's rigs.
func AblationFsync(opts Options) (*FsyncAblationReport, error) {
	opts.fill()
	var cells []cell
	for _, inodeAtSync := range []bool{false, true} {
		for _, kind := range systems[:2] {
			r := opts.rigFor(kind)
			r.InodeAtSync = inodeAtSync
			cells = append(cells, cell{rig: r, mpl: 1})
		}
	}
	return measure[FsyncAblationReport](opts, cells)
}

// margin is user-lfs's TPS over user-ffs's, in percent, under data sync
// (arm 0) or with the inode at every Sync (arm 1).
func (r *FsyncAblationReport) margin(arm int) float64 {
	return (r.Rows[2*arm+1].TPS/r.Rows[2*arm].TPS - 1) * 100
}

// Metrics adds user-lfs's margin under each rule to the rows' TPS.
func (r *FsyncAblationReport) Metrics() map[string]float64 {
	m := r.Runs.Metrics()
	m["data-sync-margin-%"], m["inode-at-sync-margin-%"] = r.margin(0), r.margin(1)
	return m
}

// String formats the ablation.
func (r *FsyncAblationReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — what File.Sync writes (MPL 1, scale %.2f, %d txns; paper's Figure 4 margin: +10%%)\n", r.Opts.Scale, r.Opts.Txns)
	fmt.Fprintf(&b, "  %-34s %9s %11s %9s %11s %14s\n", "rule", "ffs TPS", "writes/txn", "lfs TPS", "writes/txn", "LFS over FFS")
	for arm, rule := range []string{"data sync (both file systems)", "inode at every Sync (ablation)"} {
		f, l := r.Rows[2*arm], r.Rows[2*arm+1]
		fmt.Fprintf(&b, "  %-34s %9.2f %11.2f %9.2f %11.2f %+13.1f%%\n",
			rule, f.TPS, r.perTxn(f.Disk.Writes), l.TPS, r.perTxn(l.Disk.Writes), r.margin(arm))
	}
	b.WriteString("  (the inode is a seek and a rotation in place, one more sequential block in a log: mixing the rules inflates the margin)\n")
	return b.String()
}

// CleanerAblationReport quantifies §5.4: the synchronous in-kernel cleaner
// stalls the workload (its I/O sits on the critical path); the measured
// idle-overlapped background cleaner hides that I/O in the device's idle
// windows and approaches the analytic no-stall bound. Its rows are
// kernel-lfs with the synchronous cleaner, kernel-lfs with the
// idle-overlapped one, and user-lfs with the synchronous one under the same
// rig: the configuration the paper's Figure 4 shows the synchronous kernel
// cleaner losing to.
type CleanerAblationReport struct{ Runs }

// AblationCleaner runs the three on half the paper's disk, as the
// benchmark's cleaning workload does: most kernel-lfs commit forces log one
// summary block, and on the paper's half-full disk its log would barely
// wrap, leaving the cleaner nothing to do.
func AblationCleaner(opts Options) (*CleanerAblationReport, error) {
	opts.fill()
	var cells []cell
	for _, c := range []struct{ kind, mode string }{{"kernel-lfs", "sync"}, {"kernel-lfs", "idle"}, {"user-lfs", "sync"}} {
		r := opts.rig(c.kind)
		r.CleanerMode, r.DiskScale = c.mode, 0.5
		cells = append(cells, cell{rig: r, mpl: 1})
	}
	return measure[CleanerAblationReport](opts, cells)
}

// bound is the analytic no-stall bound derived from the synchronous run
// (elapsed − cleaner busy), the ceiling §5.4's design aims at, and its TPS.
func (r *CleanerAblationReport) bound() (time.Duration, float64) {
	elapsed := r.Rows[0].Elapsed - r.Rows[0].LFS.Cleaner.BusyTime
	if elapsed <= 0 {
		return elapsed, 0
	}
	return elapsed, float64(r.Opts.Txns) / elapsed.Seconds()
}

// Metrics adds the no-stall bound's TPS to the rows' TPS.
func (r *CleanerAblationReport) Metrics() map[string]float64 {
	m := r.Runs.Metrics()
	_, m["no-stall-bound-TPS"] = r.bound()
	return m
}

// String formats the ablation.
func (r *CleanerAblationReport) String() string {
	sync, idle, user := r.Rows[0], r.Rows[1], r.Rows[2]
	sc, ic := sync.LFS.Cleaner, idle.LFS.Cleaner
	boundElapsed, boundTPS := r.bound()
	var b strings.Builder
	b.WriteString("Ablation — cleaner placement (§5.4: take the cleaner off the critical path)\n")
	fmt.Fprintf(&b, "  %-34s %12s %8s %15s\n", "configuration", "elapsed", "TPS", "cleaner stall")
	fmt.Fprintf(&b, "  %-34s %12s %8.2f %14.1f%%\n", "synchronous in-kernel (measured)",
		sync.Elapsed.Truncate(time.Millisecond), sync.TPS, float64(sc.BusyTime)/float64(sync.Elapsed)*100)
	fmt.Fprintf(&b, "  %-34s %12s %8.2f %14.1f%%\n", "idle-overlapped (measured)",
		idle.Elapsed.Truncate(time.Millisecond), idle.TPS, float64(ic.StallTime)/float64(idle.Elapsed)*100)
	fmt.Fprintf(&b, "  %-34s %12s %8.2f %15s\n", "no-stall bound (analytic)",
		boundElapsed.Truncate(time.Millisecond), boundTPS, "0.0%")
	// The idle rig's flush path still cleans synchronously when free
	// segments run out before an idle pass frees some: the rest of busy.
	fmt.Fprintf(&b, "  idle cleaner: %s busy = %s overlapped + %s stalled + %s in synchronous passes; write amplification %.2f×\n",
		ic.BusyTime.Truncate(time.Millisecond), ic.OverlapTime.Truncate(time.Millisecond),
		ic.StallTime.Truncate(time.Millisecond), (ic.BusyTime - ic.OverlapTime - ic.StallTime).Truncate(time.Millisecond), idle.LFS.WriteAmp)
	fmt.Fprintf(&b, "  user-level on LFS: %.2f TPS → kernel/user ratio %.2f sync, %.2f idle-overlapped\n",
		user.TPS, sync.TPS/user.TPS, idle.TPS/user.TPS)
	return b.String()
}

// CommitBytesReport contrasts §4.3's whole-page commit flush with WAL's
// delta logging, in bytes handed to the commit path and in blocks that reach
// the log device, alone and under multiprogramming with group commit. Its
// rows are kernel-lfs, then user-lfs, each at MPL 1 and 8, each with a force
// per commit and with group commit ×8. Loaded holds each rig's snapshot
// right after its load: a snapshot's lfs section counts the load's blocks
// too, so the log's counts are taken from it.
type CommitBytesReport struct {
	Runs
	Loaded []*tpcb.Snapshot
}

// AblationCommitBytes measures the write volume difference between the two
// transaction managers on LFS. (At MPL 1 nobody can join a batch, so each
// manager's two MPL 1 rows coincide.)
func AblationCommitBytes(opts Options) (*CommitBytesReport, error) {
	opts.fill()
	var cells []cell
	for _, kind := range []string{"kernel-lfs", "user-lfs"} {
		for _, mpl := range []int{1, 8} {
			for _, gc := range []int{1, groupCommit} {
				r := opts.rigFor(kind)
				r.GroupCommit = gc
				cells = append(cells, cell{rig: r, mpl: mpl})
			}
		}
	}
	loaded, rows, err := opts.run(cells, nil)
	if err != nil {
		return nil, err
	}
	return &CommitBytesReport{Runs{opts, rows}, loaded}, nil
}

// volume is a row of the commit-volume table, per committed transaction:
// the bytes handed to the commit path (whole pages flushed, embedded, or WAL
// bytes logged, user level), then the log device's traffic over the measured
// run. patch is what the commit forces wrote as patch records instead of
// whole blocks; blocks, every partial segment's, splits into data + summary
// + inodePack + pointer; cleaner is what of blocks the cleaner wrote.
type volume struct {
	commit, patch, blocks, data, summary, inodePack, pointer, cleaner float64
}

// volume derives row i's volume from its snapshots.
func (r *CommitBytesReport) volume(i int) volume {
	end, load := r.Rows[i].LFS, r.Loaded[i].LFS
	v := volume{
		patch:     r.perTxn(end.PatchBytes - load.PatchBytes),
		blocks:    r.perTxn(end.BlocksLogged - load.BlocksLogged),
		summary:   r.perTxn(end.PartialSegments - load.PartialSegments),
		inodePack: r.perTxn(end.InodePackBlocks - load.InodePackBlocks),
		pointer:   r.perTxn(end.PointerBlocks - load.PointerBlocks),
		cleaner:   r.perTxn(end.Cleaner.BlocksWritten - load.Cleaner.BlocksWritten),
	}
	v.data = v.blocks - v.summary - v.inodePack - v.pointer
	if e := r.Rows[i].Embedded; e != nil {
		v.commit = r.perTxn(e.BytesFlushed)
	} else {
		v.commit = r.perTxn(r.Rows[i].WAL.BytesLogged)
	}
	return v
}

// Metrics adds each manager's commit bytes and blocks per txn at MPL 1.
func (r *CommitBytesReport) Metrics() map[string]float64 {
	m := r.Runs.Metrics()
	k, u := r.volume(0), r.volume(4)
	m["kernel-B/txn"], m["wal-B/txn"], m["kernel-blocks/txn"], m["wal-blocks/txn"] = k.commit, u.commit, k.blocks, u.blocks
	return m
}

// String formats the ablation.
func (r *CommitBytesReport) String() string {
	var b strings.Builder
	b.WriteString("Ablation — commit volume (§4.3: whole pages at commit vs logging only the updated bytes)\n")
	fmt.Fprintf(&b, "  %-10s %4s %3s %8s %13s %12s %11s = %6s + %7s + %10s + %7s %9s\n",
		"system", "MPL", "gc", "TPS", "commit B/txn", "patch B/txn", "blocks/txn", "data", "summary", "inode pack", "pointer", "(cleaner)")
	for i, row := range r.Rows {
		v, gc := r.volume(i), []int{1, groupCommit}[i%2]
		fmt.Fprintf(&b, "  %-10s %4d %3d %8.2f %13.0f %12.0f %11.2f   %6.2f   %7.2f   %10.2f   %7.2f %9.2f\n",
			row.System, row.MPL, gc, row.TPS, v.commit, v.patch, v.blocks,
			v.data, v.summary, v.inodePack, v.pointer, v.cleaner)
	}
	// Rows 0 and 4 are each manager alone; rows 3 and 7 at MPL 8 with group commit ×8.
	k, u := r.volume(0), r.volume(4)
	fmt.Fprintf(&b, "  MPL 1: the embedded manager hands %.0f× the bytes to its commit path, patches %.1f× the bytes and puts %.1f× the blocks on the device\n",
		k.commit/u.commit, k.patch/u.patch, k.blocks/u.blocks)
	k, u = r.volume(3), r.volume(7)
	fmt.Fprintf(&b, "  MPL 8, group commit ×8: %.0f× the bytes, %.1f× the patch bytes, %.1f× the blocks\n",
		k.commit/u.commit, k.patch/u.patch, k.blocks/u.blocks)
	return b.String()
}
