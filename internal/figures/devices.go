package figures

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/tpcb"
)

// ------------------------------------------------------------- device sweep

// FigureDevicesCell is one measured point of the multi-spindle sweep: one
// array size at one multiprogramming level.
type FigureDevicesCell struct {
	MPL     int
	TPS     float64
	Elapsed time.Duration
	Retries int64
	// Cross and Single count committed transactions that spanned shards
	// (two-phase commit) versus those that stayed on one device. Zero on
	// the single-spindle baseline.
	Cross  int64
	Single int64
	// QueueTime is cumulative time requests waited for a busy spindle,
	// summed over the devices; MaxDevQueue is the worst single device's
	// share (the hot spindle).
	QueueTime   time.Duration
	MaxDevQueue time.Duration
	// BlockedTime is cumulative lock-wait time across clients.
	BlockedTime time.Duration
}

// FigureDevicesSeries is one line of the sweep: one device count across all
// multiprogramming levels.
type FigureDevicesSeries struct {
	Devices int
	Cells   []FigureDevicesCell
}

// FigureDevicesReport holds the TPS-vs-MPL-vs-device-count sweep: the
// modified TPC-B on the user-level LFS system, range-partitioned across 1,
// 2, and 4 spindles with per-shard logs and cross-shard two-phase commit.
// The single-spindle line saturates once the one disk is busy; adding
// spindles moves the saturation point up because independent shards queue
// and seek independently, which is the scale-out argument the paper's
// single-disk §5 measurements stop short of.
type FigureDevicesReport struct {
	Opts    Options
	Devices []int
	Series  []FigureDevicesSeries
}

// deviceSweepMPLs are the multiprogramming levels of the device sweep: the
// interesting region is past the single-disk saturation knee, so the sweep
// runs an order of magnitude beyond the default MPL figure, to 256.
var deviceSweepMPLs = []int{1, 4, 16, 64, 128, 256}

// FigureDevices measures the device sweep. Unless opts.MPLs was set
// explicitly it sweeps deviceSweepMPLs, and the database is sized so every
// relation has at least one row per shard at the largest device count.
func FigureDevices(opts Options, devices []int) (*FigureDevicesReport, error) {
	mpls := opts.MPLs // before fill() substitutes the MPL figure's levels
	if len(mpls) == 0 {
		mpls = deviceSweepMPLs
	}
	opts.fill()
	if len(devices) == 0 {
		devices = []int{1, 2, 4}
	}
	// The sweep needs a database large enough that the buffer pool sized
	// for MPL-256 write sets (below) still misses: device scaling only
	// shows when the workload is read-bound. With the generic defaults
	// (scale 0.05, 5000 txns) the whole database would fit that pool, so
	// substitute a 4x-larger database and a shorter run.
	if opts.Scale == 0.05 {
		opts.Scale = 0.2
	}
	if opts.Txns == 5000 {
		opts.Txns = 600
	}
	cfg := tpcb.ScaledConfig(opts.Scale)
	// Contention relief for the deep end of the sweep: at MPL 256 the
	// scaled-down branch relation (2 rows) would serialize everything, so
	// give the sweep the branch fan-out its MPL range needs, and apply
	// the TPC-B 85% home-branch account rule — the locality a
	// range-partitioned database exploits. Without it nearly every
	// transaction is a cross-shard two-phase commit holding hot branch
	// locks across a log force, and more devices lose to the single disk.
	if cfg.Branches < 64 {
		cfg.Branches = 64
	}
	if cfg.Tellers < 4*cfg.Branches {
		cfg.Tellers = 4 * cfg.Branches
	}
	cfg.Locality = 85
	for _, n := range devices {
		cfg = cfg.WithRowsPerShard(n)
	}
	maxMPL := 0
	for _, m := range mpls {
		if m > maxMPL {
			maxMPL = m
		}
	}
	// Every cell runs the same "hardware": a pool big enough for the
	// no-steal write sets of maxMPL concurrent transactions (the rig's
	// natural sizing wedges past MPL ~64), and a disk with headroom.
	cache := tpcb.CacheBlocksFor(cfg, opts.Txns) + 8*maxMPL
	rep := &FigureDevicesReport{Opts: opts, Devices: devices}
	for _, n := range devices {
		series := FigureDevicesSeries{Devices: n}
		for _, mpl := range mpls {
			ropts := tpcb.RigOptions{
				Kind: "user-lfs", Config: cfg, Costs: opts.Costs, ExpectedTxns: opts.Txns,
				GroupCommit: opts.GroupCommit, Devices: n,
				CacheBlocks: cache, DiskScale: 4.0,
			}
			rig, res, err := opts.measure(fmt.Sprintf("device sweep n=%d", n), ropts, mpl)
			if err != nil {
				return nil, err
			}
			cell := FigureDevicesCell{
				MPL: mpl, TPS: res.TPS, Elapsed: res.Elapsed, Retries: res.Retries,
				BlockedTime: rig.LockStats().BlockedTime,
				QueueTime:   rig.DiskStats().QueueTime,
			}
			for _, d := range rig.Devs {
				cell.MaxDevQueue = max(cell.MaxDevQueue, d.Stats().QueueTime)
			}
			if n > 1 {
				cell.Cross, cell.Single = rig.Sys.(*tpcb.UserSystem).CrossShardTxns()
			}
			series.Cells = append(series.Cells, cell)
		}
		rep.Series = append(rep.Series, series)
	}
	return rep, nil
}

// String formats the sweep as one table per device count.
func (r *FigureDevicesReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "device sweep — TPC-B throughput vs MPL vs spindles (partitioned user-lfs, scale %.2f, %d txns)\n",
		r.Opts.Scale, r.Opts.Txns)
	for _, s := range r.Series {
		fmt.Fprintf(&b, "  %d device(s):\n", s.Devices)
		fmt.Fprintf(&b, "    %4s %8s %12s %8s %8s %8s %12s %12s %12s\n",
			"MPL", "TPS", "elapsed", "retries", "cross", "single", "blocked", "disk-queue", "hot-spindle")
		for _, c := range s.Cells {
			fmt.Fprintf(&b, "    %4d %8.2f %12s %8d %8d %8d %12s %12s %12s\n",
				c.MPL, c.TPS, c.Elapsed.Truncate(time.Millisecond), c.Retries, c.Cross, c.Single,
				c.BlockedTime.Truncate(time.Millisecond), c.QueueTime.Truncate(time.Millisecond),
				c.MaxDevQueue.Truncate(time.Millisecond))
		}
	}
	return b.String()
}
