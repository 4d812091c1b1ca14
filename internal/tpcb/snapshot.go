package tpcb

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/ffs"
	"repro/internal/lfs"
	"repro/internal/libtp"
	"repro/internal/lock"
	"repro/internal/trace"
	"repro/internal/ufs"
	"repro/internal/wal"
)

// LFSReport is the snapshot's lfs section: the counters and the write
// amplification derived from them.
type LFSReport struct {
	lfs.Stats
	WriteAmp float64 `json:"write_amplification"`
}

// WallStats reports the simulator's own wall-clock performance for a run:
// real time spent inside the scheduled run, scheduler dispatches executed,
// and dispatches per wall-clock second. It measures the simulator, not the
// simulated system, and is therefore inherently nondeterministic —
// Rig.Snapshot never fills it (snapshots must stay byte-identical across
// same-flag runs); the CLIs populate it only when asked to with -wallstats.
type WallStats struct {
	WallNS       int64   `json:"wall_ns"`
	Dispatches   int64   `json:"dispatches"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// Snapshot is the compact end-of-run report: the benchmark result, every
// layer's own Stats struct (a section is nil when the rig has no such
// layer), the per-proc time attribution, and the metrics registry. The
// layers' Stats types are the only definition of their counters: a field
// added there, with its json tag, is in the report. It marshals to
// byte-stable JSON (encoding/json sorts map keys) and Render prints the
// human form both cmd/tpcb and cmd/txnbench use.
type Snapshot struct {
	Result

	Disk     *disk.Stats   `json:"disk,omitempty"`
	LFS      *LFSReport    `json:"lfs,omitempty"`
	FFS      *ffs.Stats    `json:"ffs,omitempty"`
	WAL      *wal.Stats    `json:"wal,omitempty"`
	Locks    *lock.Stats   `json:"locks,omitempty"`
	LibTP    *libtp.Stats  `json:"libtp,omitempty"`
	Embedded *core.Stats   `json:"embedded,omitempty"`
	FSCache  *buffer.Stats `json:"buffer_fs,omitempty"`   // the file system's block cache
	UserPool *buffer.Stats `json:"buffer_user,omitempty"` // LIBTP's user-level page pool

	Scan        *ScanResult            `json:"scan,omitempty"`
	Attribution []trace.AttrRow        `json:"attribution,omitempty"`
	Metrics     *trace.MetricsSnapshot `json:"metrics,omitempty"`
	Wall        *WallStats             `json:"wall,omitempty"`

	blockSize int64 // the rig's file system's, by which Render counts the embedded section's pages
}

// Snapshot assembles the end-of-run report from the rig-wide accessors and,
// when the rig carries a tracer, the per-proc time attribution and the
// metrics registry. The scan section appears when the run had scanners.
func (r *Rig) Snapshot(res MixedResult) *Snapshot {
	snap := &Snapshot{
		Result:    res.Result,
		Disk:      r.DiskStats(),
		FFS:       r.FFSStats(),
		WAL:       r.WALStats(),
		LibTP:     r.LibTPStats(),
		blockSize: int64(r.FS.BlockSize()),
	}
	if ls := r.LFSStats(); ls != nil {
		snap.LFS = &LFSReport{Stats: *ls, WriteAmp: ls.WriteAmplification()}
	}
	if p, ok := r.FS.(interface{ Pool() *buffer.Pool }); ok { // lfs.FS and ffs.FS
		st := p.Pool().Stats()
		snap.FSCache = &st
	}
	if r.Env != nil {
		st := r.Env.PoolStats()
		snap.UserPool = &st
	}
	if r.Core != nil {
		cs := r.Core.Stats()
		snap.Embedded = &cs
	}
	if r.Env != nil || r.Core != nil {
		ls := r.LockStats()
		snap.Locks = &ls
	}
	if res.Scanners > 0 {
		snap.Scan = &res.ScanResult
	}
	if tr := r.Tracer; tr.Enabled() {
		snap.Attribution = tr.Attribution()
		ms := tr.Metrics().Snapshot()
		snap.Metrics = &ms
	}
	return snap
}

// writeBehind renders a file system's background-lane write-behind time.
func writeBehind(wb disk.BgTimes) string {
	return fmt.Sprintf("write-behind busy %v (%v overlapped with idle windows, %v stalled)", wb.Busy, wb.Overlap, wb.Stall)
}

// stageHits renders what a file system's write-behind stage served.
func stageHits(st ufs.StageStats) string {
	return fmt.Sprintf("%d fetches served by the stage (%d parked, %d kept; %d kept blocks reclaimed unread)",
		st.ParkedHits+st.KeptHits, st.ParkedHits, st.KeptHits, st.KeptReclaimed)
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Render returns the human-readable report. The per-subsystem lines keep the
// exact shapes cmd/tpcb has always printed, so scripts parsing them keep
// working.
func (s *Snapshot) Render() string {
	var b strings.Builder
	b.WriteString(s.Result.String())
	b.WriteByte('\n')

	if d := s.Disk; d != nil {
		fmt.Fprintf(&b, "\ndisk: %d read ops (%d blocks), %d write ops (%d blocks), busy %v, queued %v\n",
			d.Reads, d.BlocksRead, d.Writes, d.BlocksWrit, d.BusyTime, d.QueueTime)
	}
	if f := s.LFS; f != nil {
		fmt.Fprintf(&b, "lfs: %d partial segments, %d blocks logged (%d summary, %d inode pack, %d pointer), %d segment-tail blocks skipped, %d checkpoints, %d flushes of a full stage (%d hot cached blocks left dirty), %s; %s\n",
			f.PartialSegments, f.BlocksLogged, f.PartialSegments, f.InodePackBlocks, f.PointerBlocks, f.SkippedTailBlocks, f.Checkpoints, f.StagedFlushes, f.HotBlocksLeft, stageHits(f.Stage), writeBehind(f.WriteBehind))
		if forces := f.SummaryOnlyForces + f.FullForceCauses.Total(); forces > 0 {
			force := "File.Sync" // a user-level rig's commit force; the embedded manager's is FlushCommit
			if s.Embedded != nil {
				force = "FlushCommit"
			}
			c := f.FullForceCauses
			fmt.Fprintf(&b, "lfs: %d %s forces, %d summary-only (%.1f %%, %d bytes in patches, %d summary sectors, %d pages read back from the stage), %d with blocks (%d no delta, %d undurable staged block, %d inode pack, %d summary room, %d cleared pointers)\n",
				forces, force, f.SummaryOnlyForces, 100*perTxn(f.SummaryOnlyForces, int(forces)), f.PatchBytes, f.SummarySectors, f.StagedPatched, c.Total(),
				c.NoDelta, c.StagedUndurable, c.InodePack, c.SummaryRoom, c.PtrsCleared)
		}
		cl := f.Cleaner
		fmt.Fprintf(&b, "cleaner: %d segments cleaned in %d passes, %d blocks copied, %d dead, busy %v (%.1f%% of elapsed), write amplification %.2f×\n",
			cl.SegmentsCleaned, cl.Runs, cl.BlocksCopied, cl.BlocksDead,
			cl.BusyTime, pct(cl.BusyTime, s.Elapsed), f.WriteAmp)
		if cl.OverlapTime > 0 || cl.StallTime > 0 {
			fmt.Fprintf(&b, "cleaner: %v overlapped with idle windows, %v stalled the workload (%.1f%% of elapsed)\n",
				cl.OverlapTime, cl.StallTime, pct(cl.StallTime, s.Elapsed))
		}
	}
	if f := s.FFS; f != nil {
		fmt.Fprintf(&b, "ffs: %d syncer passes, %d blocks flushed (%d short writes, %d short-write sectors), %d evicted blocks staged, %d sweeps of a full stage, %s; inode stores %d by File.Sync, %d by syncer or FS.Sync; %s\n",
			f.SyncerRuns, f.BlocksFlushed, f.ShortWrites, f.ShortWriteSectors, f.BlocksStaged, f.StagedFlushes, stageHits(f.Stage), f.SyncInodeStores, f.SyncerInodeStores, writeBehind(f.WriteBehind))
	}
	if e := s.Embedded; e != nil {
		fmt.Fprintf(&b, "embedded: %d committed, %d aborted, %d commit flushes, %d pages (%d bytes) committed\n",
			e.Committed, e.Aborted, e.CommitFlush, e.BytesFlushed/s.blockSize, e.BytesFlushed)
		if e.Snapshots > 0 || e.VersionsRecorded > 0 {
			fmt.Fprintf(&b, "embedded: %d snapshots, %d page versions recorded\n",
				e.Snapshots, e.VersionsRecorded)
		}
	}
	if n, ok := s.DeltaPeak(); ok {
		fmt.Fprintf(&b, "mvcc: %d bytes of before-images kept for pinned snapshots at peak\n", n)
	}
	if sc := s.Scan; sc != nil {
		fmt.Fprintf(&b, "scan: %d scans (%d rows) by %d %s scanner(s), %d retries; writers: %d txns in %.1fs → %.2f TPS\n",
			sc.Scans, sc.ScanRows, sc.Scanners, sc.ScanMode, sc.ScanRetries,
			s.Txns, sc.WriterElapsed.Seconds(), sc.WriterTPS)
	}
	if l := s.Locks; l != nil {
		fmt.Fprintf(&b, "locks: %d requests (%.1f per txn), %d acquired, %d upgrades, %d waits (%v blocked), %d deadlocks (%d upgrade, %d order; %d aborts)\n",
			l.Requests, perTxn(l.Requests, s.Txns), l.Acquired, l.Upgrades, l.Waited, l.BlockedTime,
			l.Deadlocks, l.UpgradeDeadlocks, l.Deadlocks-l.UpgradeDeadlocks, l.DeadlockAborts)
	}
	if w := s.WAL; w != nil {
		var wbForces, wbSkips int64
		if l := s.LibTP; l != nil {
			wbForces, wbSkips = l.WriteBackForces, l.WriteBackSkips
		}
		fmt.Fprintf(&b, "wal: %d records, %d bytes, %d page write-backs (%d forcing the log, %d already durable), %d forces, %d group-absorbed commits\n",
			w.Records, w.BytesLogged, wbForces+wbSkips, wbForces, wbSkips, w.Forces, w.GroupCommits)
		if w.Segments > 0 {
			fmt.Fprintf(&b, "wal: %d segments (%d rotations, %d sealed), %d deleted, %d checkpoints\n",
				w.Segments, w.Rotations, w.SegmentsSealed, w.SegmentsDeleted, w.Checkpoints)
		}
	}
	if w := s.Wall; w != nil {
		fmt.Fprintf(&b, "wall: %v wall-clock, %d dispatches, %.0f events/s (simulator speed, nondeterministic)\n",
			time.Duration(w.WallNS), w.Dispatches, w.EventsPerSec)
	}
	if len(s.Attribution) > 0 {
		b.WriteString("\nwhere did simulated time go (per proc, measured interval):\n")
		fmt.Fprintf(&b, "  %-10s %10s %10s %10s %10s %10s %10s %10s\n",
			"proc", "elapsed", "compute", "disk", "queue", "lock", "commit", "cleaner")
		row := func(r trace.AttrRow) {
			fmt.Fprintf(&b, "  %-10s %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f\n",
				r.Proc, r.Elapsed.Seconds(), r.Compute.Seconds(), r.Disk.Seconds(), r.Queue.Seconds(),
				r.Lock.Seconds(), r.CommitWait.Seconds(), r.CleanerStall.Seconds())
		}
		tot := trace.AttrRow{Proc: "total"}
		for _, r := range s.Attribution {
			row(r)
			tot.Elapsed += r.Elapsed
			tot.Compute += r.Compute
			tot.Disk += r.Disk
			tot.Queue += r.Queue
			tot.Lock += r.Lock
			tot.CommitWait += r.CommitWait
			tot.CleanerStall += r.CleanerStall
		}
		if len(s.Attribution) > 1 {
			row(tot)
		}
	}
	return b.String()
}

// DeltaPeak returns the most bytes the version store held for pinned
// snapshots, sampled at each close; ok is false unless one closed traced.
func (s *Snapshot) DeltaPeak() (n int64, ok bool) {
	if s.Metrics == nil {
		return 0, false
	}
	n, ok = s.Metrics.Counters["mvcc.delta_bytes_peak"]
	return n, ok
}

func perTxn(n int64, txns int) float64 {
	if txns == 0 {
		return 0
	}
	return float64(n) / float64(txns)
}

func pct(part, whole time.Duration) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole) * 100
}
