package main

import (
	"fmt"
	"time"
)

// workload is one set of inputs: a TPC-B database size, a transaction count
// and a client mix, run on each of the three systems. The fields are plain
// data; rigs.go turns them into rig options.
type workload struct {
	Name string
	Why  string

	Scale       float64 // TPC-B scale factor (1.0 = 1,000,000 accounts)
	N           int     // transactions per pass
	RigTxns     int     // the rig's ExpectedTxns (it sizes the disk); 0 = N
	MPL         int     // closed-loop simulated clients
	GroupCommit int
	CacheBlocks int // per-pool cache override; 0 = the paper's db/10

	DiskScale    float64  // disk-size multiplier; 0 = the paper's half-full disk
	LFSDiskScale float64  // overrides DiskScale on the two LFS rigs
	IdleCleaner  []string // systems whose cleaner runs in idle windows; the rest clean synchronously

	Scanners  int // concurrent snapshot scanners; 0 = none
	ScansEach int // full account scans per scanner
}

// withN returns the workload running n transactions. The rig stays the size
// the workload defines (a tiny disk would be another workload, and the LFS
// rigs do not survive one); only a longer run gets a bigger rig.
func (w workload) withN(n int) workload {
	w.RigTxns = max(w.N, n)
	w.N = n
	return w
}

// workloads are the benchmark's four traffic mixes. Names are fixed: later
// issues cite them. N is issue 11's transaction count (16000, 3000, 12000,
// 10000) shrunk so that a pass of the three systems takes 3 to 4 wall seconds
// and a run fits the driver's budget (README.md, "Sizes"); -n runs any other
// count.
var workloads = []workload{
	{
		Name: "serial",
		Why:  "Figure 4: db 10x the cache, MPL 1, force per commit; disk/buffer/btree/lfs/ffs do the work, lock and scheduler none (3 streams x N=10000)",

		Scale: 0.05, N: 10000, MPL: 1, GroupCommit: 1,
		IdleCleaner: []string{"kernel-lfs"},
	},
	{
		Name: "contended",
		Why:  "2 branches, 10 tellers, MPL 64, db fits the cache: lock table, sim dispatch, group commit and core's page flush do the work (3 streams x N=1500)",

		Scale: 0.02, N: 1500, MPL: 64, GroupCommit: 8, CacheBlocks: 2048, DiskScale: 3,
	},
	{
		Name: "cleaning",
		Why:  "disk half the paper's size, MPL 8: the log wraps many times so segment build and the cleaner dominate; user-ffs is the control (3 streams x N=7000)",

		Scale: 0.02, N: 7000, MPL: 8, GroupCommit: 8, DiskScale: 0.5,
		IdleCleaner: []string{"user-lfs", "kernel-lfs"},
	},
	{
		Name: "mixed-scan",
		Why:  "MPL 8 writers beside 2 scanners x 4 snapshot scans through mvcc: long sequential reads against random writes; user-ffs degrades to locking (3 streams x N=6000)",

		Scale: 0.05, N: 6000, MPL: 8, GroupCommit: 8, LFSDiskScale: 6,
		IdleCleaner: []string{"user-lfs", "kernel-lfs"},
		Scanners:    2, ScansEach: 4,
	},
}

// counter indexes the flat record of layer counters sample() fills in.
type counter int

const (
	cSimNS counter = iota
	cDiskReads
	cDiskWrites
	cDiskBlocksWritten
	cDiskBusyNS
	cDiskQueueNS
	cLockWaits
	cLockBlockedNS
	cLockAborts
	cLockUpgrades
	cCommits
	cWALBytes
	cWALForces
	cCoreBytesFlushed
	cCoreFlushes
	cVersionsRecorded
	cLFSBlocksLogged
	cLFSCleanerBlocksWritten
	cLFSCleanerBlocksCopied
	cLFSCleanerBusyNS
	cLFSCleanerStallNS
	cRetentionSkips
	cFFSBlocksFlushed
	numCounters
)

// counters holds every layer's public counters at one instant, or the
// difference of two instants.
type counters [numCounters]int64

func (c counters) sub(before counters) counters {
	for i := range c {
		c[i] -= before[i]
	}
	return c
}

// traceCounters are the counts only a traced rig exposes (the tracer's
// metrics registry).
type traceCounters struct {
	FSHits, FSMisses     int64
	UserHits, UserMisses int64
	CommitWaitNS         int64
}

func (t traceCounters) sub(b traceCounters) traceCounters {
	return traceCounters{
		t.FSHits - b.FSHits, t.FSMisses - b.FSMisses,
		t.UserHits - b.UserHits, t.UserMisses - b.UserMisses,
		t.CommitWaitNS - b.CommitWaitNS,
	}
}

// attrShares is where the writer clients' simulated time went, each category
// as a share of their summed elapsed time.
type attrShares struct {
	Compute, Disk, Queue, Lock, CommitWait, Cleaner float64
}

// signature is what every pass of one (workload, system, stream) must
// reproduce exactly: the simulation is deterministic, so any difference
// between passes — or between the traced and the untraced rig — is a bug.
type signature struct {
	SimNS         int64 `json:"sim_ns"`
	Dispatches    int64 `json:"dispatches"`
	Retries       int64 `json:"retries"`
	DiskReads     int64 `json:"disk_reads"`
	DiskWrites    int64 `json:"disk_writes"`
	BlocksWritten int64 `json:"blocks_written"`
	P50NS         int64 `json:"p50_ns"`
	P99NS         int64 `json:"p99_ns"`
}

// diff names the fields in which two signatures differ.
func (s signature) diff(o signature) string {
	var out string
	field := func(name string, a, b int64) {
		if a != b {
			out += fmt.Sprintf(" %s %d != %d;", name, a, b)
		}
	}
	field("sim_ns", s.SimNS, o.SimNS)
	field("dispatches", s.Dispatches, o.Dispatches)
	field("retries", s.Retries, o.Retries)
	field("disk_reads", s.DiskReads, o.DiskReads)
	field("disk_writes", s.DiskWrites, o.DiskWrites)
	field("blocks_written", s.BlocksWritten, o.BlocksWritten)
	field("p50_ns", s.P50NS, o.P50NS)
	field("p99_ns", s.P99NS, o.P99NS)
	return out
}

// streams is how many independent transaction streams a workload runs: stream
// 0 is generated from the seed itself (so it reproduces the repository's
// other drivers at that seed), the others from seeds derived from it. The
// timed repetitions cycle through the streams and the simulated end-to-end
// metrics pool them, which is what keeps those metrics steady from seed to
// seed at a transaction count that fits the run budget.
const streams = 3

// streamSeed derives a stream's generator seed.
func streamSeed(seed uint64, stream int) uint64 {
	return seed + uint64(stream)*0x9e3779b97f4a7c15
}

// passRecord is everything one pass of one system produced.
type passRecord struct {
	System string
	Stream int
	N      int
	Traced bool
	Err    string // hard error; the pass's uncommitted transactions count as failed

	SetupWall  time.Duration // BuildRig: format + load
	RunWall    time.Duration // run + drain
	Mallocs    int64
	AllocBytes int64
	GCPause    time.Duration

	SimElapsed   time.Duration // run + drain; the writers alone on a mixed run
	Dispatches   int64
	Retries      int64
	Attempts     int64
	Committed    int64
	Lat          []time.Duration // one per committed transaction, retries included
	P50, P99     time.Duration
	ScanMean     time.Duration
	ScanMode     string // effective mode of a mixed run's scanners
	DeviceBlocks int64
	Counts       counters
	Trace        traceCounters
	Shares       attrShares

	AuditBad   int64
	AuditFirst string
	Failed     int64
}

// fill derives the pass's latency quantiles, scan time and failure count
// from what the decorator recorded. wantScanRows is the row count the
// pass's scans must have seen in total.
func (p *passRecord) fill(rec *recorder, wantScanRows int64) {
	p.Attempts, p.Committed, p.Lat = rec.attempts, rec.committed, rec.lat
	p.P50, p.P99 = quantile(p.Lat, 0.50), quantile(p.Lat, 0.99)
	var sum time.Duration
	for _, d := range rec.scans {
		sum += d
	}
	if len(rec.scans) > 0 {
		p.ScanMean = sum / time.Duration(len(rec.scans))
	}
	p.Failed = int64(p.N) - p.Committed + p.AuditBad
	if p.Err == "" && rec.scanRows != wantScanRows {
		p.Err = fmt.Sprintf("scans saw %d rows, want %d", rec.scanRows, wantScanRows)
	}
}

func (p passRecord) signature() signature {
	return signature{
		SimNS:         int64(p.SimElapsed),
		Dispatches:    p.Dispatches,
		Retries:       p.Retries,
		DiskReads:     p.Counts[cDiskReads],
		DiskWrites:    p.Counts[cDiskWrites],
		BlocksWritten: p.Counts[cDiskBlocksWritten],
		P50NS:         int64(p.P50),
		P99NS:         int64(p.P99),
	}
}

// recorder is the timing decorator's memory for one pass.
type recorder struct {
	lat       []time.Duration
	scans     []time.Duration // one per completed account scan
	scanRows  int64
	attempts  int64
	committed int64
	// Committed deltas per row, for the audit.
	account, teller, branch map[int64]int64
	spans                   *spanLog // nil unless the pass is traced
}

func newRecorder(n int, traced bool) *recorder {
	r := &recorder{
		lat:     make([]time.Duration, 0, n),
		account: make(map[int64]int64, n),
		teller:  map[int64]int64{},
		branch:  map[int64]int64{},
	}
	if traced {
		r.spans = &spanLog{}
	}
	return r
}

func (r *recorder) commit(account, teller, branch, amount int64, lat time.Duration) {
	r.committed++
	r.lat = append(r.lat, lat)
	r.account[account] += amount
	r.teller[teller] += amount
	r.branch[branch] += amount
}
