// Package crashsweep is a deterministic crash-point fault-injection harness
// for the three TPC-B transaction systems. It executes one golden run to
// learn the device's write-operation timeline, samples crash points along it
// (densely near commits, checkpoints, and cleaner passes; strided
// elsewhere), then for each point replays the workload deterministically,
// crashes the simulated disk mid-write (optionally tearing the crashing
// multi-block transfer), discards all in-memory state, and drives the
// system's recovery path:
//
//   - kernel-lfs: LFS checkpoint + roll-forward (the paper's single
//     recovery paradigm — no transaction-manager step at all);
//   - user-lfs:   LFS recovery, then LIBTP WAL redo/undo;
//   - user-ffs:   FFS mount + fsck bitmap rebuild, then LIBTP WAL redo/undo.
//
// After recovery it verifies durability (every transaction acknowledged
// before the crash is present), atomicity (no partial transaction visible),
// file-system self-consistency (fsck), and the TPC-B balance invariants
// against the shadow history. Everything is driven by the simulated clock
// and seeded RNGs: the same options always produce a byte-identical Report.
package crashsweep

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/detsort"
	"repro/internal/ffs"
	"repro/internal/lfs"
	"repro/internal/libtp"
	"repro/internal/pagestore"
	"repro/internal/tpcb"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// Options configures a sweep.
type Options struct {
	// System is the rig kind: "kernel-lfs", "user-lfs", or "user-ffs".
	System string
	// Config sizes the database (default 1000/10/2 accounts/tellers/branches,
	// workload seed derived from Seed).
	Config tpcb.Config
	// Txns is the number of transactions in the golden run (default 200).
	Txns int
	// Seed seeds the workload and the per-point torn-write prefixes.
	Seed uint64
	// Torn enables torn-write mode: the crashing multi-block transfer
	// persists a deterministic prefix of its blocks (default off = the
	// crashing write persists nothing).
	Torn bool
	// MaxPoints bounds the sampled crash points (0 = every write op).
	MaxPoints int
	// CheckpointEvery inserts a harness checkpoint (env checkpoint or LFS
	// sync) every N transactions, creating crash points inside checkpoint
	// processing (default Txns/4; negative disables).
	CheckpointEvery int
	// DiskScale shrinks the rig's disk so the cleaner runs during the
	// sweep (default 1.0).
	DiskScale float64
	// LogSegmentBytes bounds the WAL segment size for the user-level
	// systems (0 = the wal default). Small segments make the sweep cross
	// rotation and checkpoint-truncation boundaries; segments of a few
	// blocks (16 KB) also put checkpoints mid-block in segments that seal
	// before the crash, so recovery seeks into a sealed segment.
	LogSegmentBytes int64
	// Snapshots, when positive, opens a read-only MVCC snapshot every
	// Snapshots-th transaction, reads account pages through it, and holds
	// it across the following transactions (closing one transaction before
	// the next opens). Crash points then land while a snapshot is pinned
	// and commits keep before-images for it; the sweep verifies that the
	// volatile snapshot state (pins die with the crash) never compromises
	// recovery.
	Snapshots int
}

func (o *Options) fill() error {
	switch o.System {
	case "kernel-lfs", "user-lfs", "user-ffs":
	default:
		return fmt.Errorf("crashsweep: unknown system %q", o.System)
	}
	if o.Config == (tpcb.Config{}) {
		o.Config = tpcb.Config{Accounts: 1000, Tellers: 10, Branches: 2, Seed: o.Seed + 1}
	}
	if o.Txns == 0 {
		o.Txns = 200
	}
	if o.Txns < 1 {
		return fmt.Errorf("crashsweep: %d transactions: want at least 1", o.Txns)
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = o.Txns / 4
	}
	if o.DiskScale == 0 {
		o.DiskScale = 1.0
	}
	return nil
}

// Violation describes one failed crash point.
type Violation struct {
	WriteOp   int64  `json:"write_op"`  // the op the crash fired on
	Committed int    `json:"committed"` // transactions acknowledged before the crash
	Stage     string `json:"stage"`     // workload stage the crash interrupted
	Err       string `json:"err"`
}

// Report is the deterministic result of a sweep.
type Report struct {
	System          string        `json:"system"`
	Seed            uint64        `json:"seed"`
	Torn            bool          `json:"torn"`
	Txns            int           `json:"txns"`
	Snapshots       int           `json:"snapshots,omitempty"` // snapshot-probe cadence (0 = off)
	LoadWriteOps    int64         `json:"load_write_ops"`      // ops consumed by rig build + load
	TotalWriteOps   int64         `json:"total_write_ops"`     // ops in the whole golden run
	Points          int           `json:"points"`              // crash points swept
	DensePoints     int           `json:"dense_points"`        // points from dense (event) sampling
	Survived        int           `json:"survived"`
	Violations      []Violation   `json:"violations,omitempty"`
	MeanRecovery    time.Duration `json:"mean_recovery_ns"`  // mean simulated recovery time
	MaxRecovery     time.Duration `json:"max_recovery_ns"`   // worst simulated recovery time
	CheckpointOps   int64         `json:"checkpoint_ops"`    // ops inside harness checkpoints/drain
	CleanerTxnSpans int           `json:"cleaner_txn_spans"` // transactions whose span included cleaning, a stage sweep or a WAL segment event
	MeanReplayTxns  int           `json:"mean_replay_txns"`  // mean committed txns at the crash point

	// Recovery-scan totals, summed over surviving user-level recoveries:
	// how much log the bounded recovery actually read.
	ScanSegments int64 `json:"scan_segments,omitempty"`
	ScanBlocks   int64 `json:"scan_blocks,omitempty"`
	ScanRecords  int64 `json:"scan_records,omitempty"`
}

// OK reports whether the sweep found no violations.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// String renders the report as the EXPERIMENTS.md recovery-matrix row plus
// a violation list.
func (r *Report) String() string {
	var b strings.Builder
	torn := "no"
	if r.Torn {
		torn = "yes"
	}
	fmt.Fprintf(&b, "%-10s  seed=%d torn=%s txns=%d\n", r.System, r.Seed, torn, r.Txns)
	fmt.Fprintf(&b, "  write ops        %d (load %d, checkpoints/drain %d)\n",
		r.TotalWriteOps, r.LoadWriteOps, r.CheckpointOps)
	fmt.Fprintf(&b, "  crash points     %d (%d dense, %d strided)\n",
		r.Points, r.DensePoints, r.Points-r.DensePoints)
	fmt.Fprintf(&b, "  survived         %d/%d\n", r.Survived, r.Points)
	fmt.Fprintf(&b, "  mean recovery    %v (max %v, simulated)\n", r.MeanRecovery, r.MaxRecovery)
	fmt.Fprintf(&b, "  cleaner spans    %d  mean replay %d txns\n", r.CleanerTxnSpans, r.MeanReplayTxns)
	if r.ScanSegments > 0 {
		fmt.Fprintf(&b, "  recovery scans   %d segments, %d blocks, %d records (total over survivors)\n",
			r.ScanSegments, r.ScanBlocks, r.ScanRecords)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  VIOLATION op %d stage=%s committed=%d: %s\n",
			v.WriteOp, v.Stage, v.Committed, v.Err)
	}
	return b.String()
}

// span is one workload stage's write-op interval (ops in (From, To]).
type span struct {
	Stage string // "txn", "txn+event" (cleaner or auto-checkpoint ran), "checkpoint", "drain"
	From  int64
	To    int64
}

func buildRig(opts Options) (*tpcb.Rig, error) {
	return tpcb.BuildRig(tpcb.RigOptions{
		Kind:            opts.System,
		Config:          opts.Config,
		ExpectedTxns:    opts.Txns,
		DiskScale:       opts.DiskScale,
		LogSegmentBytes: opts.LogSegmentBytes,
	})
}

// checkpointRig runs the harness checkpoint appropriate for the system: the
// user-level drain (an environment checkpoint), or an LFS sync under the
// embedded manager.
func checkpointRig(rig *tpcb.Rig) error {
	if rig.Core != nil {
		return rig.LFS.Sync()
	}
	return rig.Sys.Drain()
}

// denseEvents snapshots the rig-wide counters whose changes mark a span as
// dense: LFS auto-checkpoints and cleaner passes, sweeps of FFS's full stage,
// and WAL segment rotations, seals, checkpoint truncations, and
// checkpoint records (none under the embedded manager). Crashing on every op
// of such spans covers torn blocks at segment tails, half-written index files,
// interrupted truncations, and a stage half swept into place.
func denseEvents(rig *tpcb.Rig) int64 {
	var n int64
	if st := rig.LFSStats(); st != nil {
		n += st.Checkpoints + st.Cleaner.Runs
	}
	if st := rig.FFSStats(); st != nil {
		n += st.StagedFlushes
	}
	if st := rig.WALStats(); st != nil {
		n += st.Rotations + st.SegmentsSealed + st.SegmentsDeleted + st.Checkpoints
	}
	return n
}

// snapshotProber drives Options.Snapshots: a read-only MVCC snapshot opened
// every Nth transaction, probed with raw page reads, and held across the
// transactions in between so crash points land while before-images are kept
// for it. The probe only reads, so the golden and replay write-op
// timelines stay aligned whether or not a crash is scheduled.
type snapshotProber struct {
	every int
	buf   []byte

	uEnv  *libtp.Env
	uDB   *libtp.DB
	uSnap *libtp.Snapshot

	kMgr  *core.Manager
	kFile *core.File
	kSnap *core.Snapshot
}

func newSnapshotProber(opts Options, rig *tpcb.Rig) (*snapshotProber, error) {
	if opts.Snapshots <= 0 {
		return nil, nil
	}
	p := &snapshotProber{every: opts.Snapshots}
	if rig.Core != nil {
		f, err := rig.Core.Open(tpcb.AccountPath)
		if err != nil {
			return nil, fmt.Errorf("snapshot probe open: %w", err)
		}
		p.kMgr, p.kFile = rig.Core, f
		return p, nil
	}
	db, err := rig.Env.OpenDB(tpcb.AccountPath)
	if err != nil {
		return nil, fmt.Errorf("snapshot probe open: %w", err)
	}
	p.uEnv, p.uDB = rig.Env, db
	return p, nil
}

// step runs after transaction i commits: a new snapshot opens (and probes a
// few account pages) on the opening beat, and the held snapshot closes one
// transaction before the next opening, so the pinned horizon spans the
// commits — and commit flushes, checkpoints, and cleaning — in between.
func (p *snapshotProber) step(i int) error {
	if p == nil {
		return nil
	}
	switch {
	case i%p.every == 0:
		return p.probe()
	case i%p.every == p.every-1:
		p.close()
	}
	return nil
}

func (p *snapshotProber) probe() error {
	p.close()
	var st pagestore.Store
	if p.kMgr != nil {
		p.kSnap = p.kMgr.BeginSnapshot()
		st = p.kSnap.Store(p.kFile)
	} else {
		p.uSnap = p.uEnv.BeginSnapshot()
		st = p.uSnap.Store(p.uDB)
	}
	np, err := st.NumPages()
	if err != nil {
		return fmt.Errorf("snapshot probe: %w", err)
	}
	if p.buf == nil {
		p.buf = make([]byte, st.PageSize())
	}
	for n := int64(0); n < np && n < 4; n++ {
		if err := st.ReadPage(n, p.buf); err != nil {
			return fmt.Errorf("snapshot probe page %d: %w", n, err)
		}
	}
	return nil
}

func (p *snapshotProber) close() {
	if p == nil {
		return
	}
	if p.kSnap != nil {
		p.kSnap.Close()
		p.kSnap = nil
	}
	if p.uSnap != nil {
		p.uSnap.Close()
		p.uSnap = nil
	}
}

// goldenRun executes the full workload once, recording the write-op spans of
// every stage. The returned rig has completed the run (for final state
// inspection); the spans drive crash-point sampling.
func goldenRun(opts Options) (*tpcb.Rig, []span, int64, error) {
	rig, err := buildRig(opts)
	if err != nil {
		return nil, nil, 0, err
	}
	loadOps := rig.Dev.WriteOps()
	prober, err := newSnapshotProber(opts, rig)
	if err != nil {
		return nil, nil, 0, err
	}
	gen := tpcb.NewGenerator(opts.Config)
	spans := make([]span, 0, opts.Txns+opts.Txns/4+2)
	prev := loadOps
	events := denseEvents(rig)
	note := func(stage string) {
		cur := rig.Dev.WriteOps()
		if e := denseEvents(rig); e != events && stage == "txn" {
			stage, events = "txn+event", e
		}
		if cur > prev {
			spans = append(spans, span{Stage: stage, From: prev, To: cur})
		}
		prev = cur
	}
	for i := 0; i < opts.Txns; i++ {
		tx := gen.Next()
		if err := rig.Sys.Run(tx); err != nil {
			return nil, nil, 0, fmt.Errorf("crashsweep: golden run txn %d: %w", i, err)
		}
		if err := prober.step(i); err != nil {
			return nil, nil, 0, fmt.Errorf("crashsweep: golden run txn %d: %w", i, err)
		}
		note("txn")
		if opts.CheckpointEvery > 0 && (i+1)%opts.CheckpointEvery == 0 && i+1 < opts.Txns {
			if err := checkpointRig(rig); err != nil {
				return nil, nil, 0, fmt.Errorf("crashsweep: golden checkpoint: %w", err)
			}
			note("checkpoint")
		}
	}
	prober.close()
	if err := rig.Sys.Drain(); err != nil {
		return nil, nil, 0, fmt.Errorf("crashsweep: golden drain: %w", err)
	}
	note("drain")
	return rig, spans, loadOps, nil
}

// samplePoints picks the crash points to sweep: every op of checkpoint,
// drain, and cleaner-active spans, the first and last op of every plain
// transaction span (the last is the commit force), then a uniform stride
// over whatever ops remain, all bounded by maxPoints with deterministic
// downsampling.
func samplePoints(spans []span, maxPoints int) (points []int64, dense int) {
	densePts := map[int64]bool{}
	inDense := map[int64]bool{}
	for _, s := range spans {
		if s.Stage == "txn" {
			densePts[s.From+1] = true
			densePts[s.To] = true
			continue
		}
		for op := s.From + 1; op <= s.To; op++ {
			densePts[op] = true
		}
	}
	for op := range densePts {
		inDense[op] = true
	}
	var rest []int64
	for _, s := range spans {
		for op := s.From + 1; op <= s.To; op++ {
			if !inDense[op] {
				rest = append(rest, op)
			}
		}
	}
	denseSorted := detsort.Keys(densePts)
	if maxPoints > 0 && len(denseSorted) > maxPoints {
		// Downsample the dense set itself, evenly.
		out := make([]int64, 0, maxPoints)
		for i := 0; i < maxPoints; i++ {
			out = append(out, denseSorted[i*len(denseSorted)/maxPoints])
		}
		return out, len(out)
	}
	points = append(points, denseSorted...)
	dense = len(points)
	budget := len(rest)
	if maxPoints > 0 {
		budget = maxPoints - len(points)
	}
	if budget > 0 && len(rest) > 0 {
		step := 1
		if len(rest) > budget {
			step = (len(rest) + budget - 1) / budget
		}
		for i := 0; i < len(rest); i += step {
			points = append(points, rest[i])
		}
	}
	// detsort.Keys returned the dense points ordered; merge-sort the full set.
	all := map[int64]bool{}
	for _, p := range points {
		all[p] = true
	}
	return detsort.Keys(all), dense
}

// replayTo rebuilds the rig and replays the workload with a crash scheduled
// at write op n. It returns the transactions acknowledged before the crash,
// the transaction in flight at the crash (nil if the crash interrupted a
// checkpoint or the drain), and the stage name.
func replayTo(opts Options, n int64) (*tpcb.Rig, []tpcb.Txn, *tpcb.Txn, string, error) {
	rig, err := buildRig(opts)
	if err != nil {
		return nil, nil, nil, "", err
	}
	tornSeed := opts.Seed ^ (uint64(n) * 0x9e3779b97f4a7c15)
	prober, err := newSnapshotProber(opts, rig)
	if err != nil {
		return nil, nil, nil, "", err
	}
	rig.Dev.CrashAfter(n, opts.Torn, tornSeed)
	gen := tpcb.NewGenerator(opts.Config)
	var committed []tpcb.Txn
	for i := 0; i < opts.Txns; i++ {
		tx := gen.Next()
		if err := rig.Sys.Run(tx); err != nil {
			if rig.Dev.Crashed() {
				return rig, committed, &tx, "txn", nil
			}
			return nil, nil, nil, "", fmt.Errorf("replay txn %d: %w", i, err)
		}
		committed = append(committed, tx)
		if err := prober.step(i); err != nil {
			// The probe never writes, so it cannot fire the crash itself —
			// but it surfaces device errors if the crash fired mid-commit
			// and the transaction was not acknowledged.
			if rig.Dev.Crashed() {
				return rig, committed, nil, "txn", nil
			}
			return nil, nil, nil, "", fmt.Errorf("replay txn %d: %w", i, err)
		}
		if opts.CheckpointEvery > 0 && (i+1)%opts.CheckpointEvery == 0 && i+1 < opts.Txns {
			if err := checkpointRig(rig); err != nil {
				if rig.Dev.Crashed() {
					return rig, committed, nil, "checkpoint", nil
				}
				return nil, nil, nil, "", fmt.Errorf("replay checkpoint: %w", err)
			}
		}
	}
	prober.close()
	if err := rig.Sys.Drain(); err != nil {
		if rig.Dev.Crashed() {
			return rig, committed, nil, "drain", nil
		}
		return nil, nil, nil, "", fmt.Errorf("replay drain: %w", err)
	}
	if !rig.Dev.Crashed() {
		return nil, nil, nil, "", fmt.Errorf("crash point %d never fired (run issues fewer ops?)", n)
	}
	return rig, committed, nil, "post-drain", nil
}

// recoverAndVerify reboots the crashed device, runs the system's recovery
// path, and checks every invariant. It returns the simulated recovery time
// and, for the user-level systems, the WAL recovery's scan statistics.
func recoverAndVerify(opts Options, rig *tpcb.Rig, committed []tpcb.Txn, inFlight *tpcb.Txn) (time.Duration, wal.ScanStats, error) {
	rig.Dev.ClearCrash()
	start := rig.Clock.Now()
	var scan wal.ScanStats
	if rig.Core != nil {
		fs2, err := lfs.Mount(rig.Dev, rig.Clock, lfs.Options{CacheBlocks: 256})
		if err != nil {
			return 0, scan, fmt.Errorf("mount: %w", err)
		}
		if err := fsckLFS(fs2); err != nil {
			return 0, scan, err
		}
		elapsed := rig.Clock.Now() - start
		return elapsed, scan, tpcb.VerifyState(fs2, committed, inFlight)
	}

	// User level: file-system recovery, then WAL redo/undo.
	var fsys vfs.FileSystem
	if opts.System == "user-lfs" {
		fs2, err := lfs.Mount(rig.Dev, rig.Clock, lfs.Options{CacheBlocks: 256})
		if err != nil {
			return 0, scan, fmt.Errorf("mount: %w", err)
		}
		fsys = fs2
	} else {
		fs2, err := ffs.Mount(rig.Dev, rig.Clock, ffs.Options{CacheBlocks: 256})
		if err != nil {
			return 0, scan, fmt.Errorf("mount: %w", err)
		}
		// The bitmap rebuild MUST precede WAL replay: replay may extend
		// files, and allocating from the stale bitmap could clobber
		// durable blocks the inode table owns.
		if _, err := fs2.Fsck(); err != nil {
			return 0, scan, fmt.Errorf("fsck: %w", err)
		}
		fsys = fs2
	}
	_, rep, err := libtp.RecoverPaths(fsys, rig.Clock, libtp.Options{LogSegmentBytes: opts.LogSegmentBytes}, tpcb.DBPaths())
	if err != nil {
		return 0, scan, fmt.Errorf("wal recovery: %w", err)
	}
	scan = rep.Scan
	if lf, ok := fsys.(*lfs.FS); ok {
		if err := fsckLFS(lf); err != nil {
			return 0, scan, err
		}
	}
	elapsed := rig.Clock.Now() - start
	return elapsed, scan, tpcb.VerifyState(fsys, committed, inFlight)
}

// fsckLFS checks a recovered LFS for self-consistency.
func fsckLFS(lf *lfs.FS) error {
	rep, err := lf.Fsck()
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	if !rep.OK() {
		return fmt.Errorf("fsck: inconsistent state: %+v", rep)
	}
	return nil
}

// Run executes the sweep and returns its deterministic report.
func Run(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	golden, spans, loadOps, err := goldenRun(opts)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		System:        opts.System,
		Seed:          opts.Seed,
		Torn:          opts.Torn,
		Txns:          opts.Txns,
		Snapshots:     opts.Snapshots,
		LoadWriteOps:  loadOps,
		TotalWriteOps: golden.Dev.WriteOps(),
	}
	for _, s := range spans {
		switch s.Stage {
		case "checkpoint", "drain":
			rep.CheckpointOps += s.To - s.From
		case "txn+event":
			rep.CleanerTxnSpans++
		}
	}
	points, dense := samplePoints(spans, opts.MaxPoints)
	rep.Points = len(points)
	rep.DensePoints = dense
	var recoverySum time.Duration
	var replayTxnSum int64
	for _, n := range points {
		rig, committed, inFlight, stage, err := replayTo(opts, n)
		if err != nil {
			return nil, fmt.Errorf("crashsweep: point %d: %w", n, err)
		}
		replayTxnSum += int64(len(committed))
		rt, scan, verr := recoverAndVerify(opts, rig, committed, inFlight)
		if verr != nil {
			rep.Violations = append(rep.Violations, Violation{
				WriteOp: n, Committed: len(committed), Stage: stage, Err: verr.Error(),
			})
			continue
		}
		rep.Survived++
		rep.ScanSegments += scan.Segments
		rep.ScanBlocks += scan.Blocks
		rep.ScanRecords += scan.Records
		recoverySum += rt
		if rt > rep.MaxRecovery {
			rep.MaxRecovery = rt
		}
	}
	if rep.Survived > 0 {
		rep.MeanRecovery = recoverySum / time.Duration(rep.Survived)
	}
	if rep.Points > 0 {
		rep.MeanReplayTxns = int(replayTxnSum) / rep.Points
	}
	return rep, nil
}
