package main

import (
	"math"
	"slices"
	"time"
)

// metricDef defines one metric family. A family with Systems set yields one
// metric per system, named family.system; BENCHMARK.json lists the expanded
// names and a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which the metric may
	// worsen. BENCHMARK.json carries it for the end-to-end metrics, where the
	// driver enforces it; on a per-layer metric it only makes -compare give
	// a verdict. Floor is a worsening, in Unit, too small to count.
	Bound   float64
	Floor   float64
	Systems []string
	// Exact marks values computed from simulated time or from counts: two
	// runs of one commit with one seed give exactly the same number.
	Exact bool
}

var userSystems = []string{"user-ffs", "user-lfs"}
var lfsSystems = []string{"user-lfs", "kernel-lfs"}
var kernelOnly = []string{"kernel-lfs"}

// endToEnd are the metrics a user of the three systems (simulated clock) or
// of the simulator (host clock) sees. The bounds are what the driver's
// acceptance rule needs: at least three times the seed-to-seed spread
// measured on the noisiest workload (README.md, "Bounds").
var endToEnd = []metricDef{
	{Name: "sim_tps", Unit: "txn/s", Better: "higher", Bound: 0.06, Systems: systems, Exact: true},
	{Name: "sim_txn_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Floor: 1, Systems: systems, Exact: true},
	{Name: "sim_txn_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25, Floor: 1, Systems: systems, Exact: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05},
}

// perLayer are the single-layer metrics. README.md says which end-to-end
// metric each should move, on which workload.
var perLayer = []metricDef{
	{Name: "tpcb.attempts_per_commit", Unit: "ratio", Better: "lower", Systems: systems, Exact: true},
	{Name: "tpcb.txn_p99_ms", Unit: "ms", Better: "lower", Bound: 0.05, Floor: 1, Systems: systems, Exact: true},
	{Name: "tpcb.scan_s", Unit: "s", Better: "lower", Bound: 0.01, Floor: 0.01, Systems: systems, Exact: true},

	{Name: "lock.waits_per_txn", Unit: "count", Better: "lower", Systems: systems, Exact: true},
	{Name: "lock.blocked_ms_per_txn", Unit: "ms", Better: "lower", Systems: systems, Exact: true},
	{Name: "lock.aborts_per_commit", Unit: "ratio", Better: "lower", Systems: systems, Exact: true},
	{Name: "lock.upgrades_per_txn", Unit: "count", Better: "lower", Systems: systems, Exact: true},

	{Name: "sim.dispatches_per_txn", Unit: "count", Better: "lower", Systems: systems, Exact: true},

	{Name: "disk.reads_per_txn", Unit: "count", Better: "lower", Systems: systems, Exact: true},
	{Name: "disk.writes_per_txn", Unit: "count", Better: "lower", Systems: systems, Exact: true},
	{Name: "disk.blocks_written_per_txn", Unit: "count", Better: "lower", Systems: systems, Exact: true},
	{Name: "disk.util", Unit: "ratio", Better: "lower", Systems: systems, Exact: true},
	{Name: "disk.queue_ms_per_txn", Unit: "ms", Better: "lower", Systems: systems, Exact: true},

	{Name: "buffer.fs_hit_rate", Unit: "ratio", Better: "higher", Systems: systems, Exact: true},
	{Name: "buffer.user_hit_rate", Unit: "ratio", Better: "higher", Systems: userSystems, Exact: true},

	{Name: "wal.bytes_per_txn", Unit: "B", Better: "lower", Systems: userSystems, Exact: true},
	{Name: "wal.commits_per_force", Unit: "ratio", Better: "higher", Systems: userSystems, Exact: true},
	{Name: "libtp.commit_wait_ms_per_txn", Unit: "ms", Better: "lower", Systems: userSystems, Exact: true},

	{Name: "core.bytes_flushed_per_txn", Unit: "B", Better: "lower", Systems: kernelOnly, Exact: true},
	{Name: "core.txns_per_flush", Unit: "ratio", Better: "higher", Systems: kernelOnly, Exact: true},

	{Name: "lfs.blocks_logged_per_txn", Unit: "count", Better: "lower", Systems: lfsSystems, Exact: true},
	{Name: "lfs.write_amp", Unit: "ratio", Better: "lower", Systems: lfsSystems, Exact: true},
	{Name: "lfs.log_wraps", Unit: "ratio", Better: "lower", Systems: lfsSystems, Exact: true},
	{Name: "lfs.cleaner_blocks_copied_per_txn", Unit: "count", Better: "lower", Systems: lfsSystems, Exact: true},
	{Name: "lfs.cleaner_busy_share", Unit: "ratio", Better: "lower", Systems: lfsSystems, Exact: true},
	{Name: "lfs.cleaner_stall_share", Unit: "ratio", Better: "lower", Systems: lfsSystems, Exact: true},
	{Name: "ffs.blocks_flushed_per_txn", Unit: "count", Better: "lower", Systems: []string{"user-ffs"}, Exact: true},

	{Name: "mvcc.versions_recorded_per_txn", Unit: "count", Better: "lower", Systems: kernelOnly, Exact: true},
	{Name: "mvcc.retention_skips", Unit: "count", Better: "lower", Systems: lfsSystems, Exact: true},

	{Name: "trace.share_compute", Unit: "ratio", Better: "higher", Systems: systems, Exact: true},
	{Name: "trace.share_disk", Unit: "ratio", Better: "lower", Systems: systems, Exact: true},
	{Name: "trace.share_queue", Unit: "ratio", Better: "lower", Systems: systems, Exact: true},
	{Name: "trace.share_lock", Unit: "ratio", Better: "lower", Systems: systems, Exact: true},
	{Name: "trace.share_commit_wait", Unit: "ratio", Better: "lower", Systems: systems, Exact: true},
	{Name: "trace.share_cleaner", Unit: "ratio", Better: "lower", Systems: systems, Exact: true},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Systems: systems},

	{Name: "host.wall_us_per_txn", Unit: "us", Better: "lower", Bound: 0.15, Systems: systems},
	{Name: "host.allocs_per_txn", Unit: "count", Better: "lower", Systems: systems},
	{Name: "host.alloc_kb_per_txn", Unit: "KB", Better: "lower", Systems: systems},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower", Systems: systems},
	{Name: "host.peak_rss_mb", Unit: "MB", Better: "lower"},

	{Name: "lock.probe_acquire_ns", Unit: "ns", Better: "lower"},
	{Name: "lock.probe_acquire_allocs", Unit: "count", Better: "lower"},
	{Name: "buffer.probe_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "buffer.probe_hit_allocs", Unit: "count", Better: "lower"},
	{Name: "btree.probe_put_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.probe_put_allocs", Unit: "count", Better: "lower"},
	{Name: "btree.probe_get_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.probe_get_allocs", Unit: "count", Better: "lower"},
	{Name: "wal.probe_append_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.probe_append_allocs", Unit: "count", Better: "lower"},
	{Name: "disk.probe_io_ns", Unit: "ns", Better: "lower"},
	{Name: "disk.probe_io_allocs", Unit: "count", Better: "lower"},
	{Name: "lfs.probe_log_block_ns", Unit: "ns", Better: "lower"},
	{Name: "lfs.probe_log_block_allocs", Unit: "count", Better: "lower"},
	{Name: "sim.probe_handoff_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.probe_handoff_allocs", Unit: "count", Better: "lower"},
}

// names expands a family into its metric names.
func (d metricDef) names() []string {
	if d.Systems == nil {
		return []string{d.Name}
	}
	out := make([]string, len(d.Systems))
	for i, s := range d.Systems {
		out[i] = d.Name + "." + s
	}
	return out
}

// metricValue is one reported number. Spread is the distance between the
// first and third quartile of the timed repetitions as a share of their
// median, for host-clock metrics; -compare calls a metric unresolved when it
// exceeds the bound.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
}

// quantile estimates the q-quantile as the mean of the order statistics
// within 0.5% of the sample count on either side of the nearest-rank one (the
// smallest sample with at least a share q of the samples at or below it). For
// fewer than 200 samples that is the exact nearest-rank quantile. The window
// is there because simulated latencies sit on the disk model's rotational
// grid: hundreds of a run's transactions take exactly the same time, so the
// bare order statistic reads the same at most seeds and says nothing about a
// shift smaller than a grid step. It sorts a copy.
func quantile(samples []time.Duration, q float64) time.Duration {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	rank := max(int(math.Ceil(q*float64(n))), 1)
	half := n / 200
	lo, hi := max(rank-half, 1), min(rank+half, n)
	var sum time.Duration
	for _, d := range s[lo-1 : hi] {
		sum += d
	}
	return sum / time.Duration(hi-lo+1)
}

// median returns the middle of xs (the mean of the two middle values of an
// even count); spread returns (Q3-Q1)/median with the quartiles Python's
// statistics.quantiles(xs, n=4) gives, the rule the benchmark's driver uses.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func spread(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	// The "exclusive" method: the i-th quartile sits at position i(n+1)/4,
	// counted from one, interpolated and clamped to the sample.
	quartile := func(i int) float64 {
		pos := float64(i*(n+1)) / 4
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (quartile(3) - quartile(1)) / med
}

// per divides, giving 0 for an empty denominator: a layer that did nothing
// reports 0, never NaN.
func per[A, B int | int64 | float64 | time.Duration](a A, b B) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// systemRuns gathers one system's passes of a workload.
type systemRuns struct {
	system string
	passes []passRecord // untraced, in run order; passes[0] is the warm-up
	traced *passRecord  // nil when no traced pass ran
}

// perStream returns the first completed pass of each stream. Every other
// pass of a stream repeats it exactly (see signature), so these carry the
// simulated results. A stream the program failed on with a hard error is
// left out: its transactions count as failed, not as measurements.
func (r systemRuns) perStream() []passRecord {
	var out []passRecord
	for stream := 0; stream < streams; stream++ {
		i := slices.IndexFunc(r.passes, func(p passRecord) bool { return p.Stream == stream && p.Err == "" })
		if i >= 0 {
			out = append(out, r.passes[i])
		}
	}
	return out
}

// endToEndValues computes the system's end-to-end metrics, all on the
// simulated clock, by pooling the streams: throughput is all their
// transactions over all their simulated time, the latency quantiles are
// taken over all their samples.
func (r systemRuns) endToEndValues(out map[string]metricValue) {
	var n int
	var elapsed time.Duration
	var lat []time.Duration
	for _, p := range r.perStream() {
		n += p.N
		elapsed += p.SimElapsed
		lat = append(lat, p.Lat...)
	}
	sys := "." + r.system
	out["sim_tps"+sys] = metricValue{Value: per(float64(n), elapsed.Seconds())}
	out["sim_txn_p50_ms"+sys] = metricValue{Value: ms(quantile(lat, 0.50))}
	out["sim_txn_p90_ms"+sys] = metricValue{Value: ms(quantile(lat, 0.90))}
}

// hostValue reports the median and spread of a host-clock quantity over the
// timed passes (every completed pass but the warm-up).
func (r systemRuns) hostValue(f func(passRecord) float64) metricValue {
	var xs []float64
	for _, p := range r.passes[1:] {
		if p.Err == "" {
			xs = append(xs, f(p))
		}
	}
	return metricValue{Value: median(xs), Spread: spread(xs)}
}

// perLayerValues computes the system's single-layer metrics: counts from
// one stream's pass (stream 0 unless the program failed on it), tracer-only
// numbers from the traced pass (stream 0), host numbers as medians over the
// timed passes.
func (r systemRuns) perLayerValues(out map[string]metricValue) {
	completed := r.perStream()
	if len(completed) == 0 {
		return
	}
	p := completed[0]
	c, n := p.Counts, p.N
	set := func(name string, v float64) { out[name+"."+p.System] = metricValue{Value: v} }
	lfsRig := p.System != "user-ffs"
	userRig := p.System != "kernel-lfs"

	set("tpcb.attempts_per_commit", per(p.Attempts, p.Committed))
	set("tpcb.txn_p99_ms", ms(p.P99))
	set("tpcb.scan_s", p.ScanMean.Seconds())
	set("lock.waits_per_txn", per(c[cLockWaits], n))
	set("lock.blocked_ms_per_txn", per(ms(time.Duration(c[cLockBlockedNS])), n))
	set("lock.aborts_per_commit", per(c[cLockAborts], c[cCommits]))
	set("lock.upgrades_per_txn", per(c[cLockUpgrades], n))
	set("sim.dispatches_per_txn", per(p.Dispatches, n))
	set("disk.reads_per_txn", per(c[cDiskReads], n))
	set("disk.writes_per_txn", per(c[cDiskWrites], n))
	set("disk.blocks_written_per_txn", per(c[cDiskBlocksWritten], n))
	set("disk.util", per(c[cDiskBusyNS], c[cSimNS]))
	set("disk.queue_ms_per_txn", per(ms(time.Duration(c[cDiskQueueNS])), n))
	if userRig {
		set("wal.bytes_per_txn", per(c[cWALBytes], n))
		set("wal.commits_per_force", per(c[cCommits], c[cWALForces]))
	} else {
		set("core.bytes_flushed_per_txn", per(c[cCoreBytesFlushed], n))
		set("core.txns_per_flush", per(c[cCommits], c[cCoreFlushes]))
		set("mvcc.versions_recorded_per_txn", per(c[cVersionsRecorded], n))
	}
	if lfsRig {
		set("lfs.blocks_logged_per_txn", per(c[cLFSBlocksLogged], n))
		set("lfs.write_amp", per(c[cLFSBlocksLogged], c[cLFSBlocksLogged]-c[cLFSCleanerBlocksWritten]))
		set("lfs.log_wraps", per(c[cLFSBlocksLogged], p.DeviceBlocks))
		set("lfs.cleaner_blocks_copied_per_txn", per(c[cLFSCleanerBlocksCopied], n))
		set("lfs.cleaner_busy_share", per(c[cLFSCleanerBusyNS], c[cSimNS]))
		set("lfs.cleaner_stall_share", per(c[cLFSCleanerStallNS], c[cSimNS]))
		set("mvcc.retention_skips", float64(c[cRetentionSkips]))
	} else {
		set("ffs.blocks_flushed_per_txn", per(c[cFFSBlocksFlushed], n))
	}

	host := func(name string, f func(passRecord) float64) {
		out[name+"."+p.System] = r.hostValue(f)
	}
	host("host.wall_us_per_txn", func(p passRecord) float64 { return per(us(p.RunWall), p.N) })
	host("host.allocs_per_txn", func(p passRecord) float64 { return per(p.Mallocs, p.N) })
	host("host.alloc_kb_per_txn", func(p passRecord) float64 { return per(float64(p.AllocBytes)/1024, p.N) })
	host("host.gc_pause_ms", func(p passRecord) float64 { return ms(p.GCPause) })

	t := r.traced
	if t == nil {
		return
	}
	set("buffer.fs_hit_rate", per(t.Trace.FSHits, t.Trace.FSHits+t.Trace.FSMisses))
	if userRig {
		set("buffer.user_hit_rate", per(t.Trace.UserHits, t.Trace.UserHits+t.Trace.UserMisses))
		set("libtp.commit_wait_ms_per_txn", per(ms(time.Duration(t.Trace.CommitWaitNS)), n))
	}
	set("trace.share_compute", t.Shares.Compute)
	set("trace.share_disk", t.Shares.Disk)
	set("trace.share_queue", t.Shares.Queue)
	set("trace.share_lock", t.Shares.Lock)
	set("trace.share_commit_wait", t.Shares.CommitWait)
	set("trace.share_cleaner", t.Shares.Cleaner)
	untraced := r.hostValue(func(p passRecord) float64 { return float64(p.RunWall) })
	set("trace.overhead_ratio", per(float64(t.RunWall), untraced.Value))
}
