package figures

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/tpcb"
)

// FigureMPLReport holds the TPS-vs-MPL sweep over the three systems of
// Figure 4, with and without group commit. The paper measured TPC-B at
// MPL 1 only (§5.1's single-user caveat); this sweep is the multi-user
// extension its discussion of group commit (§4.4) anticipates. Its rows run
// system by system, each with a force per commit then group commit ×8, each
// of those at Opts.MPLs in order.
type FigureMPLReport struct{ Runs }

// FigureMPL runs the modified TPC-B at each multiprogramming level, on each
// system, with force-per-commit and with group commit.
func FigureMPL(opts Options) (*FigureMPLReport, error) {
	opts.fill()
	naturalCache := tpcb.CacheBlocksFor(tpcb.ScaledConfig(opts.Scale), opts.Txns)
	var cells []cell
	for _, kind := range systems {
		for _, gc := range []int{1, groupCommit} {
			for _, mpl := range opts.MPLs {
				r := opts.rigFor(kind)
				r.GroupCommit = gc
				if mpl > naturalCache {
					// At least one buffer per client (the MPL 256 cells): the
					// kernel's no-steal pool wedges when the running
					// transactions' held pages outnumber it.
					r.CacheBlocks = mpl
				}
				cells = append(cells, cell{rig: r, mpl: mpl})
			}
		}
	}
	return measure[FigureMPLReport](opts, cells)
}

// String formats the sweep as one table per (system, group-commit) series.
// Forces are log forces on the user-level systems and commit flushes on the
// kernel; retries are re-run deadlock victims; blocked is the clients'
// cumulative lock wait and disk-queue their wait for the busy spindle.
func (r *FigureMPLReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MPL sweep — modified TPC-B throughput vs multiprogramming level (scale %.2f, %d txns)\n", r.Opts.Scale, r.Opts.Txns)
	rows := r.Rows
	for _, kind := range systems {
		for _, mode := range []string{"force per commit", fmt.Sprintf("group commit ×%d", groupCommit)} {
			fmt.Fprintf(&b, "  %s, %s:\n", kind, mode)
			fmt.Fprintf(&b, "    %4s %8s %12s %8s %8s %9s %12s %12s\n", "MPL", "TPS", "elapsed", "forces", "retries", "deadlocks", "blocked", "disk-queue")
			for _, c := range rows[:len(r.Opts.MPLs)] {
				var forces int64
				if c.WAL != nil {
					forces = c.WAL.Forces
				} else {
					forces = c.Embedded.CommitFlush
				}
				fmt.Fprintf(&b, "    %4d %8.2f %12s %8d %8d %9d %12s %12s\n",
					c.MPL, c.TPS, c.Elapsed.Truncate(time.Millisecond), forces, c.Retries,
					c.Locks.DeadlockAborts, c.Locks.BlockedTime.Truncate(time.Millisecond), c.Disk.QueueTime.Truncate(time.Millisecond))
			}
			rows = rows[len(r.Opts.MPLs):]
		}
	}
	return b.String()
}
