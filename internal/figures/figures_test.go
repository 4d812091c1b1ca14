package figures

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/tpcb"
)

// smallOpts keeps CI runs quick while still exercising every code path.
func smallOpts() Options {
	return Options{Scale: 0.01, Txns: 600, MPLs: []int{1, 4}}
}

// reports holds each registry figure's report at smallOpts, run once per
// test binary: the golden test and the figure tests read the same runs.
// The package's tests run one at a time, so the map needs no lock.
var reports = map[string]Report{}

// report returns the report of the registry figure key at smallOpts.
func report[R Report](t *testing.T, key string) R {
	t.Helper()
	rep, ok := reports[key]
	if !ok {
		for _, fig := range Figures {
			if fig.Key == key {
				var err error
				if rep, err = fig.Run(smallOpts()); err != nil {
					t.Fatalf("figure %s: %v", key, err)
				}
				reports[key] = rep
			}
		}
	}
	r, ok := rep.(R)
	if !ok {
		t.Fatalf("figure %s: no %T report", key, r)
	}
	return r
}

// updatePhase stands in for Figure 6's two update-phase runs: user-ffs at
// ffsTPS, then user-lfs at lfsTPS.
func updatePhase(opts Options, ffsTPS, lfsTPS float64) Runs {
	return Runs{opts, []*tpcb.Snapshot{
		{Result: tpcb.Result{System: "user-ffs", TPS: ffsTPS}},
		{Result: tpcb.Result{System: "user-lfs", TPS: lfsTPS}},
	}}
}

func TestFigure4ShapeHolds(t *testing.T) {
	rep := report[*Figure4Report](t, "4")
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	byName := map[string]*tpcb.Snapshot{}
	for _, r := range rep.Rows {
		byName[r.System] = r
	}
	// The margin the report prints is the one its bars measure. Which way it
	// points is the result, not a property of the code: at this size the two
	// user-level bars are within a few percent of each other (EXPERIMENTS.md,
	// Figure 4). That user-lfs logs each commit in one device write is checked
	// on this bar by TestAblationFsync.
	margin := (byName["user-lfs"].TPS/byName["user-ffs"].TPS - 1) * 100
	if want := fmt.Sprintf("LFS over read-optimized: %+.1f%%", margin); !strings.Contains(rep.String(), want) {
		t.Fatalf("report should say %q:\n%s", want, rep)
	}
	// The kernel system must be in the same league as the user system
	// (the paper reports them comparable; see EXPERIMENTS.md for the
	// measured ratio and its analysis).
	ratio := byName["kernel-lfs"].TPS / byName["user-lfs"].TPS
	if ratio < 0.5 || ratio > 1.5 {
		t.Fatalf("kernel/user ratio %.2f outside the comparable band", ratio)
	}
	s := rep.String()
	if !strings.Contains(s, "Figure 4") || !strings.Contains(s, "user-lfs") {
		t.Fatalf("report formatting broken:\n%s", s)
	}
}

func TestFigure5WithinTwoPercent(t *testing.T) {
	rep := report[*Figure5Report](t, "5")
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if d := row.delta(); d < -0.5 || d > 2.0 {
			t.Fatalf("%s: txn-kernel overhead %.2f%% outside the paper's 1–2%% band", row.Workload, d)
		}
	}
	if !strings.Contains(rep.String(), "ANDREW") {
		t.Fatal("report formatting broken")
	}
}

func TestFigure67ScanPenaltyAndCrossover(t *testing.T) {
	rep := report[*Figure67Report](t, "6")
	// Figure 6: the read-optimized system must win the key-order scan
	// after random updates (paper: by ~50%).
	if penalty := float64(rep.LFSScan) / float64(rep.FFSScan); penalty <= 1.0 {
		t.Fatalf("scan penalty %.2f: LFS should be slower than read-optimized after random updates", penalty)
	}
	// Figure 7: at this size LFS is faster per transaction (Figure 4) and
	// slower to scan, so the lines cross where the scan penalty is paid back;
	// TestFigure7SaysWhenTheLinesDoNotCross covers the other branch.
	ffsTPS, lfsTPS := rep.Rows[0].TPS, rep.Rows[1].TPS
	if lfsTPS <= ffsTPS {
		t.Fatalf("LFS TPS (%f) not above FFS TPS (%f): this test takes the crossing branch", lfsTPS, ffsTPS)
	}
	want := (rep.LFSScan - rep.FFSScan).Seconds() / (1/ffsTPS - 1/lfsTPS)
	if !rep.Crosses || want <= 0 || math.Abs(rep.CrossoverTxns-want) > 1e-6 {
		t.Fatalf("crossover = %f (crosses: %v), want %f", rep.CrossoverTxns, rep.Crosses, want)
	}
	if out := rep.String(); !strings.Contains(out, fmt.Sprintf("crossover: %.0f txns (", want)) || strings.Contains(out, "none") {
		t.Fatalf("report should print the crossover:\n%s", out)
	}
}

// When the read-optimized system is no slower per transaction the lines never
// meet, and the report says so instead of printing a crossover at 0 (the
// paper-size run under the shared Sync contract: 12.45 against 12.00 TPS).
func TestFigure7SaysWhenTheLinesDoNotCross(t *testing.T) {
	rep := &Figure67Report{
		Runs:    updatePhase(Options{Scale: 1, Txns: 100000}, 12.45, 12.00),
		FFSScan: 200 * time.Second, LFSScan: 370 * time.Second,
	}
	rep.figure7()
	if rep.Crosses || rep.CrossoverTxns != 0 || rep.CrossoverTime != 0 {
		t.Fatalf("crossover %f at %v (crosses: %v), want none", rep.CrossoverTxns, rep.CrossoverTime, rep.Crosses)
	}
	// The series ends at the run's length with read-optimized ahead:
	// 100000/12.45 s + 200 s against 100000/12 s + 370 s.
	out := rep.String()
	if !strings.Contains(out, "  100000             2h17m12s          2h25m3s\n") {
		t.Fatalf("series should end at the run's length with read-optimized ahead:\n%s", out)
	}
	if !strings.Contains(out, "crossover: none within 100000 txns (read-optimized ahead at every N)") {
		t.Fatalf("report should say the lines do not cross:\n%s", out)
	}
	js, err := json.Marshal(rep)
	if err != nil || !strings.Contains(string(js), `"Crosses":false`) {
		t.Fatalf("JSON should carry Crosses: %s, %v", js, err)
	}

	rep = &Figure67Report{
		Runs:    updatePhase(Options{Scale: 0.05, Txns: 5000}, 15.72, 17.57),
		FFSScan: 10 * time.Second, LFSScan: 15 * time.Second,
	}
	rep.figure7()
	want := 5 / (1/15.72 - 1/17.57)
	if !rep.Crosses || math.Abs(rep.CrossoverTxns-want) > 1e-6 {
		t.Fatalf("crossover %f (crosses: %v), want %f", rep.CrossoverTxns, rep.Crosses, want)
	}
	if out := rep.String(); !strings.Contains(out, fmt.Sprintf("crossover: %.0f txns (", want)) || strings.Contains(out, "none") {
		t.Fatalf("report should print the crossover:\n%s", out)
	}
}

// The 2 × 2 behind Figure 4's margin: writing the inode at every Sync slows
// both file systems, the update-in-place one far more than the log, and the
// default arm is Figure 4 itself.
func TestAblationFsync(t *testing.T) {
	rep := report[*FsyncAblationReport](t, "fsync")
	// Rows 0 and 1 are user-ffs and user-lfs under data sync, 2 and 3 with
	// the inode at every Sync.
	writes := func(i int) float64 { return rep.perTxn(rep.Rows[i].Disk.Writes) }
	gain := map[string]float64{}
	for i, kind := range []string{"user-ffs", "user-lfs"} {
		data, inode := rep.Rows[i], rep.Rows[i+2]
		if data.System != kind || inode.System != kind {
			t.Fatalf("rows %d and %d are %s and %s, want %s", i, i+2, data.System, inode.System, kind)
		}
		if data.TPS <= inode.TPS {
			t.Errorf("%s: data sync (%.2f TPS) should beat the inode at every Sync (%.2f)", kind, data.TPS, inode.TPS)
		}
		gain[kind] = data.TPS / inode.TPS
	}
	// In place the inode is a write operation of its own at every force; in
	// a log it is one more block of the operation that carries the data.
	if writes(0) > writes(2)-0.5 {
		t.Errorf("user-ffs: data sync should save most of a device write per transaction: %.2f vs %.2f", writes(0), writes(2))
	}
	// The log takes each commit in one device write, its partial segment;
	// write-behind and cleaning add less than a tenth of one per transaction.
	if w := writes(1); w < 1 || w >= 1.1 {
		t.Errorf("user-lfs: %.2f device writes per transaction, want one per commit", w)
	}
	if gain["user-ffs"] <= gain["user-lfs"] {
		t.Errorf("the inode costs a seek in place and a sequential block in a log: FFS should gain more (×%.3f) than LFS (×%.3f)",
			gain["user-ffs"], gain["user-lfs"])
	}
	if rep.margin(0) >= rep.margin(1) {
		t.Errorf("margin under data sync %+.1f%% should be below the margin with the inode at every Sync %+.1f%%",
			rep.margin(0), rep.margin(1))
	}
	for i, row := range report[*Figure4Report](t, "4").Rows[:2] {
		if got := rep.Rows[i].TPS; got != row.TPS {
			t.Errorf("%s: the default arm measures %.6f TPS, Figure 4 %.6f", row.System, got, row.TPS)
		}
	}
	if !strings.Contains(rep.String(), "LFS over FFS") {
		t.Fatal("report formatting broken")
	}
}

func TestAblationSyncDirection(t *testing.T) {
	rep := report[*SyncAblationReport](t, "sync")
	slowUser, slowKernel, fastUser, fastKernel := rep.Rows[0].TPS, rep.Rows[1].TPS, rep.Rows[2].TPS, rep.Rows[3].TPS
	// Fast user sync must help the user-level system...
	if fastUser <= slowUser {
		t.Fatalf("fast sync should raise user TPS: %f vs %f", fastUser, slowUser)
	}
	// ...and close (or shrink) the kernel's relative advantage.
	slowGap := slowKernel / slowUser
	fastGap := fastKernel / fastUser
	if fastGap >= slowGap+0.001 {
		t.Fatalf("fast user sync should shrink the kernel/user gap: %.4f → %.4f", slowGap, fastGap)
	}
	_ = rep.String()
}

func TestAblationCleanerBound(t *testing.T) {
	rep := report[*CleanerAblationReport](t, "cleaner")
	sync, idle := rep.Rows[0], rep.Rows[1]
	sc, ic := sync.LFS.Cleaner, idle.LFS.Cleaner
	if sc.BusyTime <= 0 {
		t.Fatal("the synchronous cleaner should have run under TPC-B churn")
	}
	if ic.BusyTime <= 0 {
		t.Fatal("the idle-overlapped cleaner should have run under TPC-B churn")
	}
	// The analytic bound removes all cleaner stalls from the synchronous
	// run, so it must beat it; the measured idle-overlapped run must also
	// beat synchronous. No ordering is asserted between idle and the bound:
	// the bound inherits the synchronous cleaner's work, and batched idle
	// passes can clean more cheaply than that.
	if _, bound := rep.bound(); bound <= sync.TPS {
		t.Fatalf("removing cleaner stalls must raise TPS: bound %f vs sync %f", bound, sync.TPS)
	}
	if idle.TPS <= sync.TPS {
		t.Fatalf("idle-overlapped cleaning must beat the synchronous cleaner: %f vs %f", idle.TPS, sync.TPS)
	}
	// Overlap accounting must be consistent: busy = overlapped + stalled,
	// and the stall residue must be smaller than the synchronous run's
	// all-stall cleaner time.
	if got := ic.OverlapTime + ic.StallTime; got != ic.BusyTime {
		t.Fatalf("idle cleaner accounting: overlap %v + stall %v != busy %v", ic.OverlapTime, ic.StallTime, got)
	}
	if ic.StallTime >= sc.BusyTime {
		t.Fatalf("idle-overlapped stall %v should be below the synchronous cleaner time %v", ic.StallTime, sc.BusyTime)
	}
	if idle.LFS.WriteAmp < 1 {
		t.Fatalf("write amplification %f < 1", idle.LFS.WriteAmp)
	}
	_ = rep.String()
}

func TestAblationCommitBytes(t *testing.T) {
	rep := report[*CommitBytesReport](t, "commitbytes")
	if len(rep.Rows) != 8 || len(rep.Loaded) != 8 {
		t.Fatalf("%d rows, %d loaded, want 2 systems × MPL 1/8 × group commit 1/8", len(rep.Rows), len(rep.Loaded))
	}
	// Rows 0–3 are kernel-lfs, 4–7 user-lfs; within each, MPL 1 then 8, each
	// with a force per commit then group commit ×8.
	// §4.3: the embedded system writes whole pages; WAL writes deltas —
	// "this compares rather dismally with logging schemes where only the
	// updated bytes need be written".
	k, u := rep.volume(0), rep.volume(4)
	if k.commit < 4*u.commit {
		t.Fatalf("whole-page commits (%f B) should dwarf WAL deltas (%f B)", k.commit, u.commit)
	}
	// On the device both commit forces are mostly one summary block whose
	// patch records carry the changed bytes, and the pages follow whole by
	// write-behind; WAL's log block follows too, so the embedded manager
	// logs no more blocks.
	if k.blocks > u.blocks || k.patch <= 0 || u.patch <= 0 {
		t.Fatalf("embedded %f blocks/txn (%f patch bytes) vs WAL %f (%f): want no more blocks, both patching",
			k.blocks, k.patch, u.blocks, u.patch)
	}
	for i := range rep.Rows {
		v := rep.volume(i)
		if v.data <= 0 || v.summary <= 0 {
			t.Fatalf("row %d %+v: no data or no summary blocks logged", i, v)
		}
		// A commit force packs an inode only when an attribute changed (a
		// file grew): with a force per commit, far below one pack per
		// partial segment.
		if i%2 == 0 && v.inodePack*4 > v.summary {
			t.Fatalf("row %d %+v: an inode pack in more than a quarter of the partial segments", i, v)
		}
	}
	// Group commit at MPL 8 shares the force: fewer partial segments, fewer
	// blocks per transaction, on both managers.
	for _, i := range []int{2, 6} {
		if one, eight := rep.volume(i), rep.volume(i+1); eight.summary >= one.summary || eight.blocks >= one.blocks {
			t.Fatalf("%s at MPL 8: group commit ×8 logs %f blocks (%f summaries) per txn vs %f (%f) without",
				rep.Rows[i].System, eight.blocks, eight.summary, one.blocks, one.summary)
		}
	}
	_ = rep.String()
}

func TestFigureMPLSweep(t *testing.T) {
	rep := report[*FigureMPLReport](t, "mpl")
	// 3 systems × 2 group-commit settings × 2 MPLs.
	if len(rep.Rows) != 12 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for i := 0; i < len(rep.Rows); i += 2 {
		one, four := rep.Rows[i], rep.Rows[i+1]
		gc := []int{1, groupCommit}[i/2%2]
		if one.MPL != 1 || four.MPL != 4 || one.TPS <= 0 || four.TPS <= 0 {
			t.Fatalf("%s gc=%d: rows %d and %d ran MPL %d at %.2f TPS and MPL %d at %.2f",
				one.System, gc, i, i+1, one.MPL, one.TPS, four.MPL, four.TPS)
		}
		// Concurrency must help the force-per-commit runs: overlapping
		// clients hide the per-commit force latency. (With group commit the
		// MPL=1 run already batches its forces, so no ordering is asserted.)
		if gc == 1 && four.TPS <= one.TPS {
			t.Fatalf("%s gc=%d: MPL=4 (%.2f TPS) should beat MPL=1 (%.2f TPS)", one.System, gc, four.TPS, one.TPS)
		}
	}
	out := rep.String()
	if !strings.Contains(out, "MPL sweep") || !strings.Contains(out, "kernel-lfs") {
		t.Fatalf("report formatting broken:\n%s", out)
	}
}

func TestCoalescingCleanerRestoresScan(t *testing.T) {
	rep := report[*Figure67Report](t, "6")
	if rep.LFSScanCoalesced <= 0 {
		t.Fatal("coalesced scan not measured")
	}
	// The coalescing cleaner must recover most of the sequential-read
	// gap the random updates created.
	if rep.LFSScanCoalesced >= rep.LFSScan {
		t.Fatalf("coalescing should speed up the scan: %v → %v", rep.LFSScan, rep.LFSScanCoalesced)
	}
}
