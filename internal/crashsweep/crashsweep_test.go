package crashsweep

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/lfs"
	"repro/internal/tpcb"
)

func smallOpts(system string, torn bool) Options {
	return Options{
		System:    system,
		Config:    tpcb.Config{Accounts: 400, Tellers: 5, Branches: 1, Seed: 11},
		Txns:      60,
		Seed:      7,
		Torn:      torn,
		MaxPoints: 48,
		DiskScale: 0.7,
	}
}

// requireSurvived fails the test with every violation of the sweep listed.
func requireSurvived(t *testing.T, rep *Report) {
	t.Helper()
	if rep.OK() {
		return
	}
	for _, v := range rep.Violations {
		t.Errorf("write op %d (stage %s, %d committed): %s", v.WriteOp, v.Stage, v.Committed, v.Err)
	}
	t.Fatalf("%d/%d crash points failed", len(rep.Violations), rep.Points)
}

func runSweep(t *testing.T, system string, torn bool) *Report {
	t.Helper()
	rep, err := Run(smallOpts(system, torn))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Points == 0 {
		t.Fatal("sweep sampled no crash points")
	}
	requireSurvived(t, rep)
	if rep.Survived != rep.Points {
		t.Fatalf("survived %d of %d with no violations recorded", rep.Survived, rep.Points)
	}
	if rep.MeanRecovery <= 0 {
		t.Fatalf("recovery should charge simulated time, mean = %v", rep.MeanRecovery)
	}
	return rep
}

// TestNegativeTxnsRejected: a sweep of fewer than one transaction is an
// error, not a panic sizing the shadow history; so are a negative number of
// crash points, snapshot cadence or WAL segment size.
func TestNegativeTxnsRejected(t *testing.T) {
	for _, bad := range []func(*Options){
		func(o *Options) { o.Txns = -3 },
		func(o *Options) { o.MaxPoints = -3 },
		func(o *Options) { o.Snapshots = -2 },
		func(o *Options) { o.LogSegmentBytes = -5 },
	} {
		opts := smallOpts("user-lfs", true)
		bad(&opts)
		if _, err := Run(opts); err == nil {
			t.Fatalf("Run swept %+v", opts)
		}
	}
}

func TestSweepKernelLFS(t *testing.T)     { runSweep(t, "kernel-lfs", false) }
func TestSweepKernelLFSTorn(t *testing.T) { runSweep(t, "kernel-lfs", true) }
func TestSweepUserLFSTorn(t *testing.T)   { runSweep(t, "user-lfs", true) }
func TestSweepUserFFSTorn(t *testing.T)   { runSweep(t, "user-ffs", true) }

// TestSweepSmallSegmentsTorn is the rotation/truncation acceptance sweep:
// tiny WAL segments make the workload rotate many times and every harness
// checkpoint truncate dead segments, so crash points land on segment-file
// creation, torn blocks at segment tails, index writes, anchor rewrites, and
// interrupted truncations. Zero violations required.
func TestSweepSmallSegmentsTorn(t *testing.T) {
	for _, system := range []string{"user-lfs", "user-ffs"} {
		t.Run(system, func(t *testing.T) {
			opts := smallOpts(system, true)
			opts.LogSegmentBytes = 4096
			rep, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				for _, v := range rep.Violations {
					t.Errorf("write op %d (stage %s, %d committed): %s", v.WriteOp, v.Stage, v.Committed, v.Err)
				}
				t.Fatalf("%d/%d crash points failed with small segments", len(rep.Violations), rep.Points)
			}
			if rep.ScanSegments == 0 || rep.ScanRecords == 0 {
				t.Fatalf("sweep recorded no recovery-scan work: %+v", rep)
			}
			// The point of the configuration: the golden run must actually
			// have crossed segment events inside transaction spans.
			if rep.CleanerTxnSpans == 0 {
				t.Fatal("no txn span crossed a WAL segment event; segments not small enough")
			}
		})
	}
}

// TestSweepKernelTriggerCheckpoint: with the harness's checkpoints off,
// 600 kernel-lfs transactions write more than the 512 partial segments after
// which LFS checkpoints on its own, mid-run and not after a full flush. Most
// commit forces are summary-only, so that checkpoint must first log every
// page whose committed bytes are in patches only; one that skipped them
// fails 5 of these 40 points. (The every-write CI sweep of 600 transactions
// keeps the harness checkpoints, whose full flushes log those pages anyway.)
func TestSweepKernelTriggerCheckpoint(t *testing.T) {
	rep, err := Run(Options{System: "kernel-lfs", Txns: 600, Seed: 1, Torn: true, MaxPoints: 40, DiskScale: 0.7, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	requireSurvived(t, rep)
	if rep.Points != 40 || rep.CheckpointOps != 0 {
		t.Fatalf("%d points, %d write ops in harness checkpoints: want 40 and none", rep.Points, rep.CheckpointOps)
	}
}

// TestSweepSnapshotsTorn is the MVCC acceptance sweep: the workload holds a
// read-only snapshot open across every fourth transaction span, so crash
// points land while a snapshot is pinned and before-images are kept for it.
// Snapshots are volatile (a crash drops every pin), so the
// recovery invariants must hold unchanged — zero violations required.
func TestSweepSnapshotsTorn(t *testing.T) {
	for _, system := range []string{"kernel-lfs", "user-lfs"} {
		t.Run(system, func(t *testing.T) {
			opts := smallOpts(system, true)
			opts.Snapshots = 4
			rep, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				for _, v := range rep.Violations {
					t.Errorf("write op %d (stage %s, %d committed): %s", v.WriteOp, v.Stage, v.Committed, v.Err)
				}
				t.Fatalf("%d/%d crash points failed with snapshots pinned", len(rep.Violations), rep.Points)
			}
			if rep.Snapshots != 4 {
				t.Fatalf("report should echo the snapshot cadence, got %d", rep.Snapshots)
			}
		})
	}
}

// TestSweepDirectRangeTorn sweeps a database small enough that every page of
// every relation sits in its file's direct range. LFS commit forces log those
// pages without the inode — a block address is all that changed — so after a
// crash each of their pointers exists only as a summary entry that
// roll-forward has to replay; the larger sweeps above keep the account leaves
// behind the indirect block. Every write op is a crash point, torn.
func TestSweepDirectRangeTorn(t *testing.T) {
	for _, system := range []string{"kernel-lfs", "user-lfs"} {
		t.Run(system, func(t *testing.T) {
			opts := smallOpts(system, true)
			opts.Config.Accounts = 150
			opts.Txns, opts.MaxPoints = 200, 0
			rig, err := tpcb.BuildRig(tpcb.RigOptions{Kind: system, Config: opts.Config, ExpectedTxns: opts.Txns})
			if err != nil {
				t.Fatal(err)
			}
			direct := int64(lfs.NDirect * rig.FS.BlockSize())
			for _, path := range tpcb.DBPaths() {
				// The history relation grows by one page per 80 transactions.
				if info, err := rig.FS.Stat(path); err != nil || info.Size+int64(opts.Txns/80+1)*int64(rig.FS.BlockSize()) > direct {
					t.Fatalf("%s: %d bytes (%v) reaches past the %d-byte direct range", path, info.Size, err, direct)
				}
			}
			rep, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			requireSurvived(t, rep)
			if rep.Points < 200 || rep.DensePoints != rep.Points || rep.Survived != rep.Points {
				t.Fatalf("%d points (%d dense), %d survived; want every write op, at least 200", rep.Points, rep.DensePoints, rep.Survived)
			}
		})
	}
}

// TestSweepStagedEvictions sweeps a database about eight times user-ffs's
// caches, so that the file system evicts dirty blocks into its stage and
// sweeps the full stage into place mid-transaction (every op of such a
// transaction is a dense crash point); every write op is a crash point, torn.
// The smaller sweeps above never evict a dirty block on FFS, so without this
// one no crash lands with a block staged.
func TestSweepStagedEvictions(t *testing.T) {
	opts := smallOpts("user-ffs", true)
	opts.Config.Accounts = 20000
	opts.Txns, opts.MaxPoints = 240, 0
	if err := opts.fill(); err != nil {
		t.Fatal(err)
	}
	golden, err := execute(opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := golden.rig.FFSStats(); st.BlocksStaged == 0 || st.StagedFlushes == 0 || st.WriteBehind.Busy == 0 {
		t.Fatalf("the golden run staged %d blocks in %d sweeps, write-behind busy %v: the sweep would crash with nothing staged, or the sweeps ran off the background lane", st.BlocksStaged, st.StagedFlushes, st.WriteBehind.Busy)
	}
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSurvived(t, rep)
	if rep.CleanerTxnSpans == 0 {
		t.Fatal("no transaction span swept the stage")
	}
	t.Logf("staged %+v; %s", *golden.rig.FFSStats(), rep)
}

// TestSweepStagedSegments is TestSweepStagedEvictions on user-lfs: a database
// large enough that LFS's cache evicts dirty blocks into its stage and the
// full stage goes out as a partial segment on the background lane, at least
// twice in the golden run; every write op is a crash point, torn.
func TestSweepStagedSegments(t *testing.T) {
	opts := smallOpts("user-lfs", true)
	opts.Config.Accounts = 20000
	opts.Txns, opts.MaxPoints = 240, 0
	if err := opts.fill(); err != nil {
		t.Fatal(err)
	}
	golden, err := execute(opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := golden.rig.LFSStats()
	if st.StagedFlushes < 2 || st.WriteBehind.Busy == 0 {
		t.Fatalf("the golden run flushed a full stage %d times, write-behind busy %v: want at least two flushes on the background lane", st.StagedFlushes, st.WriteBehind.Busy)
	}
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSurvived(t, rep)
	t.Logf("%d full-stage flushes, write-behind %+v; %s", st.StagedFlushes, st.WriteBehind, rep)
}

// TestSweepKernelStagedSegments is TestSweepStagedSegments on kernel-lfs:
// LFS's cache evicts patched pages into its stage, and the golden run must
// read at least one back and commit it by a summary-only force, with its
// staged copy kept as its durable image; every write op is a crash point,
// torn. A harness checkpoint empties the stage, so there is one, late: it
// logs the patched pages still staged.
func TestSweepKernelStagedSegments(t *testing.T) {
	opts := smallOpts("kernel-lfs", true)
	opts.Config.Accounts = 20000
	opts.Txns, opts.MaxPoints, opts.CheckpointEvery = 400, 0, 300
	if err := opts.fill(); err != nil {
		t.Fatal(err)
	}
	golden, err := execute(opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := golden.rig.LFSStats()
	if st.StagedPatched == 0 || st.FullForceCauses.Total() != 0 || st.StagedFlushes == 0 {
		t.Fatalf("the golden run committed %d pages read back from the stage by summary-only forces, made %d full forces and flushed a full stage %d times: want some, none and some",
			st.StagedPatched, st.FullForceCauses.Total(), st.StagedFlushes)
	}
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSurvived(t, rep)
	t.Logf("%d pages committed from the stage, %d parked and %d kept stage hits, %d full-stage flushes; %s", st.StagedPatched, st.Stage.ParkedHits, st.Stage.KeptHits, st.StagedFlushes, rep)
}

// TestSweepSamplingCoversCheckpoints checks the dense sampler actually put
// points inside checkpoint processing, not just at commit boundaries.
func TestSweepSamplingCoversCheckpoints(t *testing.T) {
	opts := smallOpts("kernel-lfs", true)
	if err := opts.fill(); err != nil {
		t.Fatal(err)
	}
	golden, err := execute(opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	spans, loadOps := golden.spans, golden.loadOps
	var sawCheckpoint bool
	for _, s := range spans {
		if s.From < loadOps {
			t.Fatalf("span %+v starts before the load finished (op %d)", s, loadOps)
		}
		if s.Stage == "checkpoint" {
			sawCheckpoint = true
		}
	}
	if !sawCheckpoint {
		t.Fatal("golden run recorded no checkpoint span")
	}
	points, dense := samplePoints(spans, 0)
	if dense == 0 || len(points) < dense {
		t.Fatalf("sampling looks wrong: %d points, %d dense", len(points), dense)
	}
	for i := 1; i < len(points); i++ {
		if points[i] <= points[i-1] {
			t.Fatal("points not strictly increasing")
		}
	}
	// A bounded sample must honor the cap and stay sorted.
	capped, _ := samplePoints(spans, 10)
	if len(capped) > 10 {
		t.Fatalf("cap ignored: %d points", len(capped))
	}
}

// TestSweepDeterministic requires byte-identical reports from identical
// options — the property the CI job and EXPERIMENTS numbers rest on.
func TestSweepDeterministic(t *testing.T) {
	opts := smallOpts("user-lfs", true)
	opts.Txns = 40
	opts.MaxPoints = 24
	a, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("reports differ:\n%s\n%s", ja, jb)
	}
}
