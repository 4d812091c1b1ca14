// Package crashsweep is a deterministic crash-point fault-injection harness
// for the three TPC-B transaction systems. It executes one golden run to
// learn the device's write-operation timeline, samples crash points along it
// (densely near commits, checkpoints, and cleaner passes; strided
// elsewhere), then for each point replays the workload deterministically,
// crashes the simulated disk mid-write (optionally tearing the crashing
// write at a sector boundary), discards all in-memory state, and drives the
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

	"repro/internal/detsort"
	"repro/internal/pagestore"
	"repro/internal/tpcb"
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
	// Torn enables torn-write mode: the crashing write persists a
	// deterministic prefix of its sectors (default off = the crashing write
	// persists nothing).
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
	if o.MaxPoints < 0 || o.Snapshots < 0 {
		return fmt.Errorf("crashsweep: %d crash points, a snapshot every %d transactions: want neither negative", o.MaxPoints, o.Snapshots)
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
	every   int
	buf     []byte
	pin     func() (pagestore.Store, func())
	release func() // unpins the held snapshot; nil when none is held
}

func newSnapshotProber(opts Options, rig *tpcb.Rig) (*snapshotProber, error) {
	if opts.Snapshots <= 0 {
		return nil, nil
	}
	pin, err := rig.Sys.(*tpcb.TxnSystem).OpenSnapshots(tpcb.AccountPath)
	if err != nil {
		return nil, fmt.Errorf("snapshot probe open: %w", err)
	}
	return &snapshotProber{every: opts.Snapshots, pin: pin}, nil
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
	st, p.release = p.pin()
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
	if p == nil || p.release == nil {
		return
	}
	p.release()
	p.release = nil
}

// pass is one run of the workload on a fresh rig: the golden run, which
// records the write-op span of every stage, or a replay with a crash
// scheduled, which stops at the crash.
type pass struct {
	rig       *tpcb.Rig
	loadOps   int64      // ops consumed by rig build + load
	spans     []span     // every stage the pass completed
	committed []tpcb.Txn // transactions acknowledged before the crash
	inFlight  *tpcb.Txn  // the transaction in flight at the crash, if any
	stage     string     // the stage the crash interrupted
}

// execute builds the rig and runs the workload, with a crash scheduled at
// write op crashAt when it is positive. A stage that fails on the crashed
// device ends the pass there; any other failure is an error, and so is a
// crash that never fires.
func execute(opts Options, crashAt int64) (*pass, error) {
	rig, err := buildRig(opts)
	if err != nil {
		return nil, err
	}
	p := &pass{rig: rig, loadOps: rig.Dev.WriteOps()}
	prober, err := newSnapshotProber(opts, rig)
	if err != nil {
		return nil, err
	}
	if crashAt > 0 {
		rig.Dev.CrashAfter(crashAt, opts.Torn, opts.Seed^(uint64(crashAt)*0x9e3779b97f4a7c15))
	}
	prev, events := p.loadOps, denseEvents(rig)
	// end closes a stage with its outcome and reports whether the pass ends
	// there: at the crash, or with an error.
	end := func(stage string, err error) (bool, error) {
		if err != nil {
			if rig.Dev.Crashed() {
				p.stage = stage
				return true, nil
			}
			return true, fmt.Errorf("%s: %w", stage, err)
		}
		cur := rig.Dev.WriteOps()
		if e := denseEvents(rig); e != events && stage == "txn" {
			stage, events = "txn+event", e
		}
		if cur > prev {
			p.spans = append(p.spans, span{Stage: stage, From: prev, To: cur})
		}
		prev = cur
		return false, nil
	}
	gen := tpcb.NewGenerator(opts.Config)
	for i := 0; i < opts.Txns; i++ {
		tx := gen.Next()
		if err := rig.Sys.Run(tx); err != nil {
			if rig.Dev.Crashed() {
				p.inFlight, p.stage = &tx, "txn"
				return p, nil
			}
			return nil, fmt.Errorf("txn %d: %w", i, err)
		}
		p.committed = append(p.committed, tx)
		// The probe never writes, so it cannot fire the crash itself — but
		// it surfaces device errors if the crash fired mid-commit and the
		// transaction was not acknowledged.
		if stop, err := end("txn", prober.step(i)); stop {
			return p, err
		}
		if opts.CheckpointEvery > 0 && (i+1)%opts.CheckpointEvery == 0 && i+1 < opts.Txns {
			if stop, err := end("checkpoint", checkpointRig(rig)); stop {
				return p, err
			}
		}
	}
	prober.close()
	if stop, err := end("drain", rig.Sys.Drain()); stop {
		return p, err
	}
	if crashAt > 0 {
		if !rig.Dev.Crashed() {
			return nil, fmt.Errorf("crash point %d never fired (run issues fewer ops?)", crashAt)
		}
		p.stage = "post-drain"
	}
	return p, nil
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

// Run executes the sweep and returns its deterministic report.
func Run(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	golden, err := execute(opts, 0)
	if err != nil {
		return nil, fmt.Errorf("crashsweep: golden run: %w", err)
	}
	rep := &Report{
		System:        opts.System,
		Seed:          opts.Seed,
		Torn:          opts.Torn,
		Txns:          opts.Txns,
		Snapshots:     opts.Snapshots,
		LoadWriteOps:  golden.loadOps,
		TotalWriteOps: golden.rig.Dev.WriteOps(),
	}
	for _, s := range golden.spans {
		switch s.Stage {
		case "checkpoint", "drain":
			rep.CheckpointOps += s.To - s.From
		case "txn+event":
			rep.CleanerTxnSpans++
		}
	}
	points, dense := samplePoints(golden.spans, opts.MaxPoints)
	rep.Points = len(points)
	rep.DensePoints = dense
	var recoverySum time.Duration
	var replayTxnSum int64
	for _, n := range points {
		p, err := execute(opts, n)
		if err != nil {
			return nil, fmt.Errorf("crashsweep: point %d: %w", n, err)
		}
		replayTxnSum += int64(len(p.committed))
		// Reboot through the system's recovery path, then check every
		// invariant against what the replay saw commit.
		rt, scan, verr := p.rig.Recover()
		if verr == nil {
			verr = tpcb.VerifyState(p.rig.FS, p.committed, p.inFlight)
		}
		if verr != nil {
			rep.Violations = append(rep.Violations, Violation{
				WriteOp: n, Committed: len(p.committed), Stage: p.stage, Err: verr.Error(),
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
