package figures

import (
	"cmp"
	"fmt"
	"strings"

	"repro/internal/tpcb"
	"repro/internal/trace"
)

// ScanReport is the mixed OLTP + long-running-scan sweep (the MVCC
// snapshot-read experiment): for each system, TPC-B writers at the
// group-commit MPL run alone, against two-phase-locking scans, and against
// lock-free snapshot scans. Each row's snapshot has its Scan section filled
// in; Modes records the requested mode per row (the snapshot's own scan.mode
// is the effective one — user-ffs degrades snapshot to locking, which
// measured faster there; DESIGN.md §11).
type ScanReport struct {
	Runs
	Modes []tpcb.ScanMode
	// Tracer of the last (kernel-lfs, snapshot-mode) run, for Chrome trace
	// export; not in JSON: the rows already carry the metrics.
	Tracer *trace.Tracer `json:"-"`
}

// Scan runs the mixed workload sweep: three systems × {none, locking,
// snapshot} at the group-commit MPL with idle cleaning on the LFS rigs, on
// the default disk: a pinned snapshot keeps before-images in memory, not old
// blocks in the log, so it leaves the cleaner alone.
func Scan(opts Options) (*ScanReport, error) {
	opts.fill()
	rep := &ScanReport{}
	var cells []cell
	for _, kind := range systems {
		for _, mode := range []tpcb.ScanMode{tpcb.ScanNone, tpcb.ScanLocking, tpcb.ScanSnapshot} {
			r := opts.rigFor(kind)
			r.GroupCommit, r.Trace = groupCommit, true
			if kind != "user-ffs" {
				// Both LFS rigs clean in idle windows here, user-lfs too.
				r.CleanerMode = cmp.Or(opts.CleanerMode, "idle")
			}
			cells = append(cells, cell{rig: r, mpl: groupCommit, scanners: opts.Scanners, scans: opts.ScansEach, mode: mode})
			rep.Modes = append(rep.Modes, mode)
		}
	}
	_, rows, err := opts.run(cells, func(_ int, rig *tpcb.Rig) error {
		rep.Tracer = rig.Tracer
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.Runs = Runs{opts, rows}
	return rep, nil
}

func (r *ScanReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Mixed OLTP + scan sweep (scale %.2f, %d txns, %d scanner(s) × %d scan(s))\n",
		r.Opts.Scale, r.Opts.Txns, r.Opts.Scanners, r.Opts.ScansEach)
	fmt.Fprintf(&b, "%-12s %-9s %-9s %10s %12s %10s %8s\n",
		"system", "asked", "ran", "writerTPS", "lock-blocked", "dl-aborts", "deltaKB")
	for i, snap := range r.Rows {
		ran, tps := "-", snap.TPS
		if snap.Scan != nil {
			ran = string(snap.Scan.ScanMode)
			tps = snap.Scan.WriterTPS
		}
		// The most before-image bytes the version store held at once.
		retained, _ := snap.DeltaPeak()
		fmt.Fprintf(&b, "%-12s %-9s %-9s %10.2f %12.1fs %10d %8d\n",
			snap.System, string(r.Modes[i]), ran, tps, snap.Locks.BlockedTime.Seconds(), snap.Locks.DeadlockAborts, retained/1024)
	}
	return b.String()
}
