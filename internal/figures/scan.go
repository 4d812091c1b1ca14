package figures

import (
	"cmp"
	"fmt"
	"strings"
	"time"

	"repro/internal/tpcb"
	"repro/internal/trace"
)

// ScanReport is the mixed OLTP + long-running-scan sweep (the MVCC
// snapshot-read experiment): for each system, TPC-B writers at the
// group-commit MPL run alone, against two-phase-locking scans, and against
// lock-free snapshot scans. Each row is the run's full snapshot with its
// Scan section filled in; Modes records the requested mode per row (the
// snapshot's own scan.mode is the effective one — user-ffs degrades
// snapshot to locking, which measured faster there; DESIGN.md §11).
type ScanReport struct {
	Opts  Options
	Modes []tpcb.ScanMode
	Rows  []*tpcb.Snapshot
	// Tracer of the final (kernel-lfs, snapshot-mode) run, for Chrome
	// trace export; excluded from JSON: the snapshot rows already carry
	// the metrics.
	Tracer *trace.Tracer `json:"-"`
}

// Scan runs the mixed workload sweep: three systems × {none, locking,
// snapshot} at the group-commit MPL (default 8) with idle cleaning on the
// LFS rigs, on the default disk: a pinned snapshot keeps before-images in
// memory, not old blocks in the log, so it leaves the cleaner alone.
func Scan(opts Options) (*ScanReport, error) {
	opts.fill()
	cfg := tpcb.ScaledConfig(opts.Scale)
	rep := &ScanReport{Opts: opts}
	mpl := max(opts.GroupCommit, 2)
	modes := []tpcb.ScanMode{tpcb.ScanNone, tpcb.ScanLocking, tpcb.ScanSnapshot}
	for _, kind := range []string{"user-ffs", "user-lfs", "kernel-lfs"} {
		for _, mode := range modes {
			ropts := opts.rigFor(kind)
			ropts.GroupCommit, ropts.Trace = opts.GroupCommit, true
			if kind != "user-ffs" {
				// Both LFS rigs clean in idle windows here, user-lfs too.
				ropts.CleanerMode = cmp.Or(opts.CleanerMode, "idle")
			}
			rig, err := tpcb.BuildRig(ropts)
			if err != nil {
				return nil, fmt.Errorf("scan %s %s: %w", kind, mode, err)
			}
			scanners, each := opts.Scanners, opts.ScansEach
			if mode == tpcb.ScanNone {
				scanners, each = 0, 0
			}
			res, err := rig.RunMixed(cfg, opts.Txns, mpl, scanners, each, mode)
			if err != nil {
				return nil, fmt.Errorf("scan %s %s: %w", kind, mode, err)
			}
			rep.Modes = append(rep.Modes, mode)
			rep.Rows = append(rep.Rows, rig.Snapshot(res))
			rep.Tracer = rig.Tracer
		}
	}
	return rep, nil
}

func (r *ScanReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Mixed OLTP + scan sweep (scale %.2f, %d txns, %d scanner(s) × %d scan(s))\n",
		r.Opts.Scale, r.Opts.Txns, r.Opts.Scanners, r.Opts.ScansEach)
	fmt.Fprintf(&b, "%-12s %-9s %-9s %10s %12s %10s %8s\n",
		"system", "asked", "ran", "writerTPS", "lock-blocked", "dl-aborts", "deltaKB")
	for i, snap := range r.Rows {
		ran := "-"
		tps := snap.TPS
		if snap.Scan != nil {
			ran = string(snap.Scan.ScanMode)
			tps = snap.Scan.WriterTPS
		}
		var blocked time.Duration
		var aborts int64
		if snap.Locks != nil {
			blocked = snap.Locks.BlockedTime
			aborts = snap.Locks.DeadlockAborts
		}
		// The most before-image bytes the version store held at once.
		retained, _ := snap.DeltaPeak()
		fmt.Fprintf(&b, "%-12s %-9s %-9s %10.2f %12.1fs %10d %8d\n",
			snap.System, string(r.Modes[i]), ran, tps, blocked.Seconds(), aborts, retained/1024)
	}
	return b.String()
}
