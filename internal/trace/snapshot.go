package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// AttrRow is one proc's "where did simulated time go" breakdown over its
// measured interval (ProcStart..ProcEnd). Compute is whatever the
// instrumentation did not claim. Durations marshal as integer nanoseconds.
type AttrRow struct {
	Proc         string        `json:"proc"`
	Tid          int           `json:"tid"`
	Elapsed      time.Duration `json:"elapsed"`
	Compute      time.Duration `json:"compute"`
	Disk         time.Duration `json:"disk"`
	Queue        time.Duration `json:"queue"`
	Lock         time.Duration `json:"lock"`
	CommitWait   time.Duration `json:"commit_wait"`
	CleanerStall time.Duration `json:"cleaner_stall"`
}

// Attribution returns one row per proc slot bracketed by ProcStart, in tid
// order, each covering the measured interval only (attribution accumulated
// before ProcStart is subtracted via the baseline snapshot).
//
//simlint:tokensafe(read-only exporter documented to run after Scheduler.Run returns)
func (t *Tracer) Attribution() []AttrRow {
	if t == nil {
		return nil
	}
	var rows []AttrRow
	for tid, p := range t.procs {
		if p == nil || !p.started {
			continue
		}
		end := p.end
		if !p.ended {
			end = p.start // unclosed interval: report zero elapsed, not garbage
		}
		var cat [numAttrCats]time.Duration
		var claimed time.Duration
		for c := range cat {
			cat[c] = p.cat[c] - p.base[c]
			claimed += cat[c]
		}
		row := AttrRow{
			Proc:         t.procName(tid),
			Tid:          tid,
			Elapsed:      end - p.start,
			Compute:      max(0, end-p.start-claimed),
			Disk:         cat[AttrDisk],
			Queue:        cat[AttrQueue],
			Lock:         cat[AttrLock],
			CommitWait:   cat[AttrCommitWait],
			CleanerStall: cat[AttrCleaner],
		}
		rows = append(rows, row)
	}
	return rows
}

// DiskSection mirrors disk.Device stats without importing the disk package
// (disk imports trace; the snapshot stays one layer up).
type DiskSection struct {
	Reads      int64         `json:"reads"`
	BlocksRead int64         `json:"blocks_read"`
	Writes     int64         `json:"writes"`
	BlocksWrit int64         `json:"blocks_written"`
	Seeks      int64         `json:"seeks"`
	BusyTime   time.Duration `json:"busy"`
	QueueTime  time.Duration `json:"queued"`
	// Devices breaks the totals down per member spindle on multi-device
	// rigs (nil on the classic single disk, keeping those snapshots
	// byte-identical). The top-level fields are the field-wise sum of the
	// rows — each request is counted on exactly one device, never twice.
	Devices []DiskDeviceRow `json:"devices,omitempty"`
}

// DiskDeviceRow is one member device's share of an array's disk totals: the
// per-spindle queue and seek attribution for multi-device rigs.
type DiskDeviceRow struct {
	Dev        int           `json:"dev"`
	Reads      int64         `json:"reads"`
	BlocksRead int64         `json:"blocks_read"`
	Writes     int64         `json:"writes"`
	BlocksWrit int64         `json:"blocks_written"`
	Seeks      int64         `json:"seeks"`
	BusyTime   time.Duration `json:"busy"`
	QueueTime  time.Duration `json:"queued"`
}

// CleanerSection mirrors lfs.CleanerStats.
type CleanerSection struct {
	Runs            int64         `json:"runs"`
	SegmentsCleaned int64         `json:"segments_cleaned"`
	BlocksCopied    int64         `json:"blocks_copied"`
	BlocksDead      int64         `json:"blocks_dead"`
	BusyTime        time.Duration `json:"busy"`
	OverlapTime     time.Duration `json:"overlap"`
	StallTime       time.Duration `json:"stall"`
	HotBlocks       int64         `json:"hot_blocks"`
	ColdBlocks      int64         `json:"cold_blocks"`
	// Snapshot-retention gauges (omitted when no snapshot subsystem ran, so
	// historical snapshots stay byte-identical).
	RetentionSkips int64 `json:"retention_skips,omitempty"`
	RetainedBlocks int64 `json:"retained_blocks,omitempty"`
	HorizonLag     int64 `json:"horizon_lag,omitempty"`
}

// LFSSection mirrors lfs.Stats.
type LFSSection struct {
	PartialSegments int64          `json:"partial_segments"`
	BlocksLogged    int64          `json:"blocks_logged"`
	Checkpoints     int64          `json:"checkpoints"`
	WriteAmp        float64        `json:"write_amplification"`
	Cleaner         CleanerSection `json:"cleaner"`
}

// WALSection mirrors wal.Stats.
type WALSection struct {
	Records      int64 `json:"records"`
	BytesLogged  int64 `json:"bytes_logged"`
	Forces       int64 `json:"forces"`
	GroupCommits int64 `json:"group_commits"`

	Segments         int64 `json:"segments,omitempty"`
	Rotations        int64 `json:"rotations,omitempty"`
	SegmentsSealed   int64 `json:"segments_sealed,omitempty"`
	SegmentsDeleted  int64 `json:"segments_deleted,omitempty"`
	SegmentsArchived int64 `json:"segments_archived,omitempty"`
	Checkpoints      int64 `json:"checkpoints,omitempty"`
	IndexEntries     int64 `json:"index_entries,omitempty"`
	IndexWrites      int64 `json:"index_writes,omitempty"`
}

// LockSection mirrors lock.Stats.
type LockSection struct {
	Acquired       int64         `json:"acquired"`
	Waited         int64         `json:"waited"`
	BlockedTime    time.Duration `json:"blocked"`
	Deadlocks      int64         `json:"deadlocks"`
	DeadlockAborts int64         `json:"deadlock_aborts"`
	// Upgrades counts read→write lock upgrades: the requests behind
	// upgrade deadlocks (two readers of one page each waiting to write it).
	Upgrades int64 `json:"upgrades"`
	// UpgradeDeadlocks is the part of Deadlocks denied on such an upgrade;
	// the rest are lock-ordering cycles.
	UpgradeDeadlocks int64 `json:"upgrade_deadlocks"`
}

// EmbeddedSection mirrors core.Stats for the kernel-embedded system.
type EmbeddedSection struct {
	Committed    int64 `json:"committed"`
	Aborted      int64 `json:"aborted"`
	CommitFlush  int64 `json:"commit_flushes"`
	PagesFlushed int64 `json:"pages_flushed"`
	BytesFlushed int64 `json:"bytes_flushed"`
	// Multiversion-read counters (omitted when no snapshot ran).
	Snapshots        int64 `json:"snapshots,omitempty"`
	VersionsRecorded int64 `json:"versions_recorded,omitempty"`
}

// ScanSection reports the long-running-reader side of a mixed OLTP + scan
// run: how the scans executed (locking vs snapshot) and what they cost the
// writers (writer-only elapsed/TPS vs the run total).
type ScanSection struct {
	Mode          string        `json:"mode"`
	Scanners      int           `json:"scanners"`
	Scans         int           `json:"scans"`
	Rows          int64         `json:"rows"`
	Retries       int64         `json:"retries,omitempty"` // deadlock-victim scan retries
	WriterElapsed time.Duration `json:"writer_elapsed"`
	WriterTPS     float64       `json:"writer_tps"`
}

// WallStats reports the simulator's own wall-clock performance for a run:
// real time spent inside the scheduled run, scheduler dispatches executed,
// and dispatches per wall-clock second. It measures the simulator, not the
// simulated system, and is therefore inherently nondeterministic — the
// collectors never fill it (snapshots must stay byte-identical across
// same-flag runs); the CLIs populate it only when asked to with -wallstats.
type WallStats struct {
	WallNS       int64   `json:"wall_ns"`
	Dispatches   int64   `json:"dispatches"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// Snapshot is the compact end-of-run report: the benchmark result, the
// per-subsystem statistics, the per-proc time attribution, and the metrics
// registry. It marshals to byte-stable JSON (encoding/json sorts map keys)
// and Render prints the human form both cmd/tpcb and cmd/txnbench use.
type Snapshot struct {
	System  string        `json:"system"`
	Txns    int           `json:"txns"`
	MPL     int           `json:"mpl,omitempty"`
	Retries int64         `json:"retries,omitempty"`
	Elapsed time.Duration `json:"elapsed"`
	TPS     float64       `json:"tps"`

	Disk        *DiskSection     `json:"disk,omitempty"`
	LFS         *LFSSection      `json:"lfs,omitempty"`
	WAL         *WALSection      `json:"wal,omitempty"`
	Locks       *LockSection     `json:"locks,omitempty"`
	Embedded    *EmbeddedSection `json:"embedded,omitempty"`
	Scan        *ScanSection     `json:"scan,omitempty"`
	Attribution []AttrRow        `json:"attribution,omitempty"`
	Metrics     *MetricsSnapshot `json:"metrics,omitempty"`
	Wall        *WallStats       `json:"wall,omitempty"`
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Render returns the human-readable report. The per-subsystem lines keep the
// exact shapes cmd/tpcb printed before this subsystem existed, so scripts
// parsing them keep working; the attribution table is new.
func (s *Snapshot) Render() string {
	var b strings.Builder
	res := fmt.Sprintf("%-12s %6d txns in %8.1fs simulated → %6.2f TPS", s.System, s.Txns, s.Elapsed.Seconds(), s.TPS)
	if s.MPL > 1 {
		res += fmt.Sprintf(" (MPL %d, %d deadlock retries)", s.MPL, s.Retries)
	}
	b.WriteString(res)
	b.WriteByte('\n')

	if d := s.Disk; d != nil {
		fmt.Fprintf(&b, "\ndisk: %d read ops (%d blocks), %d write ops (%d blocks), busy %v, queued %v\n",
			d.Reads, d.BlocksRead, d.Writes, d.BlocksWrit, d.BusyTime, d.QueueTime)
		for _, r := range d.Devices {
			fmt.Fprintf(&b, "disk[%d]: %d read ops (%d blocks), %d write ops (%d blocks), %d seeks, busy %v, queued %v\n",
				r.Dev, r.Reads, r.BlocksRead, r.Writes, r.BlocksWrit, r.Seeks, r.BusyTime, r.QueueTime)
		}
	}
	if f := s.LFS; f != nil {
		fmt.Fprintf(&b, "lfs: %d partial segments, %d blocks logged, %d checkpoints\n",
			f.PartialSegments, f.BlocksLogged, f.Checkpoints)
		cl := f.Cleaner
		fmt.Fprintf(&b, "cleaner: %d segments cleaned in %d passes, %d blocks copied, %d dead, busy %v (%.1f%% of elapsed)\n",
			cl.SegmentsCleaned, cl.Runs, cl.BlocksCopied, cl.BlocksDead,
			cl.BusyTime, pct(cl.BusyTime, s.Elapsed))
		if cl.OverlapTime > 0 || cl.StallTime > 0 {
			fmt.Fprintf(&b, "cleaner: %v overlapped with idle windows, %v stalled the workload (%.1f%% of elapsed)\n",
				cl.OverlapTime, cl.StallTime, pct(cl.StallTime, s.Elapsed))
		}
		if cl.HotBlocks > 0 || cl.ColdBlocks > 0 {
			fmt.Fprintf(&b, "cleaner: %d hot / %d cold blocks relocated, write amplification %.2f×\n",
				cl.HotBlocks, cl.ColdBlocks, f.WriteAmp)
		}
		if cl.RetentionSkips > 0 || cl.RetainedBlocks > 0 || cl.HorizonLag > 0 {
			fmt.Fprintf(&b, "cleaner: %d victim skips for pinned snapshots, %d block versions retained, horizon lag %d\n",
				cl.RetentionSkips, cl.RetainedBlocks, cl.HorizonLag)
		}
	}
	if e := s.Embedded; e != nil {
		fmt.Fprintf(&b, "embedded: %d committed, %d aborted, %d commit flushes, %d pages (%d bytes) forced\n",
			e.Committed, e.Aborted, e.CommitFlush, e.PagesFlushed, e.BytesFlushed)
		if e.Snapshots > 0 || e.VersionsRecorded > 0 {
			fmt.Fprintf(&b, "embedded: %d snapshots, %d page versions recorded\n",
				e.Snapshots, e.VersionsRecorded)
		}
	}
	if sc := s.Scan; sc != nil {
		fmt.Fprintf(&b, "scan: %d scans (%d rows) by %d %s scanner(s), %d retries; writers: %d txns in %.1fs → %.2f TPS\n",
			sc.Scans, sc.Rows, sc.Scanners, sc.Mode, sc.Retries,
			s.Txns, sc.WriterElapsed.Seconds(), sc.WriterTPS)
	}
	if l := s.Locks; l != nil {
		fmt.Fprintf(&b, "locks: %d acquired, %d upgrades, %d waits (%v blocked), %d deadlocks (%d upgrade, %d order; %d aborts)\n",
			l.Acquired, l.Upgrades, l.Waited, l.BlockedTime,
			l.Deadlocks, l.UpgradeDeadlocks, l.Deadlocks-l.UpgradeDeadlocks, l.DeadlockAborts)
	}
	if w := s.WAL; w != nil {
		fmt.Fprintf(&b, "wal: %d records, %d bytes, %d forces, %d group-absorbed commits\n",
			w.Records, w.BytesLogged, w.Forces, w.GroupCommits)
		if w.Segments > 0 {
			fmt.Fprintf(&b, "wal: %d segments (%d rotations, %d sealed), %d deleted, %d archived, %d checkpoints, %d index entries in %d writes\n",
				w.Segments, w.Rotations, w.SegmentsSealed, w.SegmentsDeleted,
				w.SegmentsArchived, w.Checkpoints, w.IndexEntries, w.IndexWrites)
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
		var tot AttrRow
		for _, r := range s.Attribution {
			fmt.Fprintf(&b, "  %-10s %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f\n",
				r.Proc, secs(r.Elapsed), secs(r.Compute), secs(r.Disk), secs(r.Queue),
				secs(r.Lock), secs(r.CommitWait), secs(r.CleanerStall))
			tot.Elapsed += r.Elapsed
			tot.Compute += r.Compute
			tot.Disk += r.Disk
			tot.Queue += r.Queue
			tot.Lock += r.Lock
			tot.CommitWait += r.CommitWait
			tot.CleanerStall += r.CleanerStall
		}
		if len(s.Attribution) > 1 {
			fmt.Fprintf(&b, "  %-10s %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f\n",
				"total", secs(tot.Elapsed), secs(tot.Compute), secs(tot.Disk), secs(tot.Queue),
				secs(tot.Lock), secs(tot.CommitWait), secs(tot.CleanerStall))
		}
	}
	return b.String()
}

func pct(part, whole time.Duration) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole) * 100
}

func secs(d time.Duration) float64 { return d.Seconds() }
