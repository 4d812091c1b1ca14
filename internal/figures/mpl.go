package figures

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/tpcb"
)

// ---------------------------------------------------------------- MPL sweep

// FigureMPLCell is one measured point: a system at one multiprogramming
// level with one group-commit setting.
type FigureMPLCell struct {
	MPL     int
	TPS     float64
	Elapsed time.Duration
	// Retries counts deadlock-victim transactions that were re-run.
	Retries int64
	// BlockedTime is cumulative simulated time clients spent suspended on
	// lock waits; DeadlockAborts counts waits resolved by aborting the
	// requester.
	BlockedTime    time.Duration
	DeadlockAborts int64
	// QueueTime is cumulative simulated time clients waited for the busy
	// spindle.
	QueueTime time.Duration
	// Forces counts log forces (user-level systems) or commit flushes
	// (kernel).
	Forces int64
}

// FigureMPLSeries is one line of the sweep: a system with a fixed
// group-commit batch size, measured across multiprogramming levels.
type FigureMPLSeries struct {
	System      string
	GroupCommit int
	Cells       []FigureMPLCell
}

// FigureMPLReport holds the TPS-vs-MPL sweep over the three systems of
// Figure 4, with and without group commit. The paper measured TPC-B at
// MPL 1 only (§5.1's single-user caveat); this sweep is the multi-user
// extension its discussion of group commit (§4.4) anticipates.
type FigureMPLReport struct {
	Opts   Options
	Series []FigureMPLSeries
}

// FigureMPL runs the modified TPC-B at each multiprogramming level, on each
// system, with force-per-commit and with group commit.
func FigureMPL(opts Options) (*FigureMPLReport, error) {
	opts.fill()
	cfg := tpcb.ScaledConfig(opts.Scale)
	naturalCache := tpcb.CacheBlocksFor(cfg, opts.Txns)
	rep := &FigureMPLReport{Opts: opts}
	for _, kind := range []string{"user-ffs", "user-lfs", "kernel-lfs"} {
		for _, gc := range []int{1, opts.GroupCommit} {
			series := FigureMPLSeries{System: kind, GroupCommit: gc}
			for _, mpl := range opts.MPLs {
				ropts := opts.rigFor(kind)
				ropts.GroupCommit = gc
				if mpl > naturalCache {
					// At least one buffer per client (the MPL 256 cells): the
					// kernel's no-steal pool wedges when the running
					// transactions' held pages outnumber it.
					ropts.CacheBlocks = mpl
				}
				rig, res, err := opts.measure(fmt.Sprintf("mpl sweep %s gc=%d", kind, gc), ropts, mpl)
				if err != nil {
					return nil, err
				}
				ls := rig.LockStats()
				cell := FigureMPLCell{
					MPL: mpl, TPS: res.TPS, Elapsed: res.Elapsed, Retries: res.Retries,
					BlockedTime: ls.BlockedTime, DeadlockAborts: ls.DeadlockAborts,
					QueueTime: rig.DiskStats().QueueTime,
				}
				if ws := rig.WALStats(); ws != nil {
					cell.Forces = ws.Forces
				} else {
					cell.Forces = rig.Core.Stats().CommitFlush
				}
				series.Cells = append(series.Cells, cell)
			}
			rep.Series = append(rep.Series, series)
		}
	}
	return rep, nil
}

// String formats the sweep as one table per (system, group-commit) series.
func (r *FigureMPLReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MPL sweep — modified TPC-B throughput vs multiprogramming level (scale %.2f, %d txns)\n",
		r.Opts.Scale, r.Opts.Txns)
	for _, s := range r.Series {
		mode := "force per commit"
		if s.GroupCommit > 1 {
			mode = fmt.Sprintf("group commit ×%d", s.GroupCommit)
		}
		fmt.Fprintf(&b, "  %s, %s:\n", s.System, mode)
		fmt.Fprintf(&b, "    %4s %8s %12s %8s %8s %9s %12s %12s\n",
			"MPL", "TPS", "elapsed", "forces", "retries", "deadlocks", "blocked", "disk-queue")
		for _, c := range s.Cells {
			fmt.Fprintf(&b, "    %4d %8.2f %12s %8d %8d %9d %12s %12s\n",
				c.MPL, c.TPS, c.Elapsed.Truncate(time.Millisecond), c.Forces, c.Retries,
				c.DeadlockAborts, c.BlockedTime.Truncate(time.Millisecond), c.QueueTime.Truncate(time.Millisecond))
		}
	}
	return b.String()
}
