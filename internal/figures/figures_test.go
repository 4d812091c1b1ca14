package figures

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// smallOpts keeps CI runs quick while still exercising every code path.
func smallOpts() Options {
	return Options{Scale: 0.01, Txns: 600}
}

func TestFigure4ShapeHolds(t *testing.T) {
	rep, err := Figure4(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	byName := map[string]Figure4Row{}
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
	rep, err := Figure5(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row.DeltaPct < -0.5 || row.DeltaPct > 2.0 {
			t.Fatalf("%s: txn-kernel overhead %.2f%% outside the paper's 1–2%% band", row.Workload, row.DeltaPct)
		}
	}
	if !strings.Contains(rep.String(), "ANDREW") {
		t.Fatal("report formatting broken")
	}
}

func TestFigure67ScanPenaltyAndCrossover(t *testing.T) {
	rep, err := Figure67(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Figure 6: the read-optimized system must win the key-order scan
	// after random updates (paper: by ~50%).
	if rep.ScanPenalty <= 1.0 {
		t.Fatalf("scan penalty %.2f: LFS should be slower than read-optimized after random updates", rep.ScanPenalty)
	}
	// Figure 7: at this size LFS is faster per transaction (Figure 4) and
	// slower to scan, so the lines cross where the scan penalty is paid back;
	// TestFigure7SaysWhenTheLinesDoNotCross covers the other branch.
	if rep.LFSTPS <= rep.FFSTPS {
		t.Fatalf("LFS TPS (%f) not above FFS TPS (%f): this test takes the crossing branch", rep.LFSTPS, rep.FFSTPS)
	}
	want := (rep.LFSScan - rep.FFSScan).Seconds() / (1/rep.FFSTPS - 1/rep.LFSTPS)
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
		Opts:   Options{Scale: 1, Txns: 100000},
		FFSTPS: 12.45, LFSTPS: 12.00,
		FFSScan: 200 * time.Second, LFSScan: 370 * time.Second,
	}
	rep.figure7()
	if rep.Crosses || rep.CrossoverTxns != 0 || rep.CrossoverTime != 0 {
		t.Fatalf("crossover %f at %v (crosses: %v), want none", rep.CrossoverTxns, rep.CrossoverTime, rep.Crosses)
	}
	if last := rep.Series[len(rep.Series)-1]; last.Txns != 100000 || last.FFSTotal >= last.LFSTotal {
		t.Fatalf("series should end at the run's length with read-optimized ahead: %+v", last)
	}
	out := rep.String()
	if !strings.Contains(out, "crossover: none within 100000 txns (read-optimized ahead at every N)") {
		t.Fatalf("report should say the lines do not cross:\n%s", out)
	}
	js, err := json.Marshal(rep)
	if err != nil || !strings.Contains(string(js), `"Crosses":false`) {
		t.Fatalf("JSON should carry Crosses: %s, %v", js, err)
	}

	rep = &Figure67Report{
		Opts:   Options{Scale: 0.05, Txns: 5000},
		FFSTPS: 15.72, LFSTPS: 17.57,
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
	rep, err := AblationFsync(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	gain := map[string]float64{}
	for _, kind := range []string{"user-ffs", "user-lfs"} {
		data, inode := rep.Cell(kind, false), rep.Cell(kind, true)
		if data.TPS <= inode.TPS {
			t.Errorf("%s: data sync (%.2f TPS) should beat the inode at every Sync (%.2f)", kind, data.TPS, inode.TPS)
		}
		gain[kind] = data.TPS / inode.TPS
	}
	// In place the inode is a write operation of its own at every force; in
	// a log it is one more block of the operation that carries the data.
	if data, inode := rep.Cell("user-ffs", false), rep.Cell("user-ffs", true); data.WritesPerTxn > inode.WritesPerTxn-0.5 {
		t.Errorf("user-ffs: data sync should save most of a device write per transaction: %.2f vs %.2f", data.WritesPerTxn, inode.WritesPerTxn)
	}
	// The log takes each commit in one device write, its partial segment;
	// write-behind and cleaning add less than a tenth of one per transaction.
	if w := rep.Cell("user-lfs", false).WritesPerTxn; w < 1 || w >= 1.1 {
		t.Errorf("user-lfs: %.2f device writes per transaction, want one per commit", w)
	}
	if gain["user-ffs"] <= gain["user-lfs"] {
		t.Errorf("the inode costs a seek in place and a sequential block in a log: FFS should gain more (×%.3f) than LFS (×%.3f)",
			gain["user-ffs"], gain["user-lfs"])
	}
	if rep.DataSyncMargin >= rep.InodeAtSyncMargin {
		t.Errorf("margin under data sync %+.1f%% should be below the margin with the inode at every Sync %+.1f%%",
			rep.DataSyncMargin, rep.InodeAtSyncMargin)
	}
	fig4, err := Figure4(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range fig4.Rows[:2] {
		if got := rep.Cell(row.System, false).TPS; got != row.TPS {
			t.Errorf("%s: the default arm measures %.6f TPS, Figure 4 %.6f", row.System, got, row.TPS)
		}
	}
	if !strings.Contains(rep.String(), "LFS over FFS") {
		t.Fatal("report formatting broken")
	}
}

func TestAblationSyncDirection(t *testing.T) {
	rep, err := AblationSync(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Fast user sync must help the user-level system...
	if rep.FastUser <= rep.SlowUser {
		t.Fatalf("fast sync should raise user TPS: %f vs %f", rep.FastUser, rep.SlowUser)
	}
	// ...and close (or shrink) the kernel's relative advantage.
	slowGap := rep.SlowKernel / rep.SlowUser
	fastGap := rep.FastKernel / rep.FastUser
	if fastGap >= slowGap+0.001 {
		t.Fatalf("fast user sync should shrink the kernel/user gap: %.4f → %.4f", slowGap, fastGap)
	}
	_ = rep.String()
}

func TestAblationCleanerBound(t *testing.T) {
	rep, err := AblationCleaner(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.SyncBusy <= 0 {
		t.Fatal("the synchronous cleaner should have run under TPC-B churn")
	}
	if rep.IdleBusy <= 0 {
		t.Fatal("the idle-overlapped cleaner should have run under TPC-B churn")
	}
	// The analytic bound removes all cleaner stalls from the synchronous
	// run, so it must beat it; the measured idle-overlapped run must also
	// beat synchronous. No ordering is asserted between idle and the bound:
	// the bound inherits the synchronous cleaner's work, and batched idle
	// passes can clean more cheaply than that.
	if rep.TPSBound <= rep.TPSSync {
		t.Fatalf("removing cleaner stalls must raise TPS: bound %f vs sync %f", rep.TPSBound, rep.TPSSync)
	}
	if rep.TPSIdle <= rep.TPSSync {
		t.Fatalf("idle-overlapped cleaning must beat the synchronous cleaner: %f vs %f", rep.TPSIdle, rep.TPSSync)
	}
	// Overlap accounting must be consistent: busy = overlapped + stalled,
	// and the stall residue must be smaller than the synchronous run's
	// all-stall cleaner time.
	if got := rep.IdleOverlap + rep.IdleStall; got != rep.IdleBusy {
		t.Fatalf("idle cleaner accounting: overlap %v + stall %v != busy %v", rep.IdleOverlap, rep.IdleStall, got)
	}
	if rep.IdleStall >= rep.SyncBusy {
		t.Fatalf("idle-overlapped stall %v should be below the synchronous cleaner time %v", rep.IdleStall, rep.SyncBusy)
	}
	if rep.IdleWriteAmp < 1 {
		t.Fatalf("write amplification %f < 1", rep.IdleWriteAmp)
	}
	_ = rep.String()
}

func TestAblationCommitBytes(t *testing.T) {
	rep, err := AblationCommitBytes(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 8 {
		t.Fatalf("%d rows, want 2 systems × MPL 1/8 × group commit 1/8", len(rep.Rows))
	}
	// §4.3: the embedded system writes whole pages; WAL writes deltas —
	// "this compares rather dismally with logging schemes where only the
	// updated bytes need be written".
	k, u := rep.Row("kernel-lfs", 1, 1), rep.Row("user-lfs", 1, 1)
	if k.CommitBytes < 4*u.CommitBytes {
		t.Fatalf("whole-page commits (%f B) should dwarf WAL deltas (%f B)", k.CommitBytes, u.CommitBytes)
	}
	// On the device both commit forces are mostly one summary block whose
	// patch records carry the changed bytes, and the pages follow whole by
	// write-behind; WAL's log block follows too, so the embedded manager
	// logs no more blocks.
	if k.Blocks > u.Blocks || k.PatchBytes <= 0 || u.PatchBytes <= 0 {
		t.Fatalf("embedded %f blocks/txn (%f patch bytes) vs WAL %f (%f): want no more blocks, both patching",
			k.Blocks, k.PatchBytes, u.Blocks, u.PatchBytes)
	}
	for _, row := range rep.Rows {
		if sum := row.Data + row.Summary + row.InodePack + row.Pointer; row.Data <= 0 || row.Summary <= 0 || math.Abs(sum-row.Blocks) > 1e-9 {
			t.Fatalf("%+v: kinds do not add up to the blocks logged", row)
		}
		// A commit force packs an inode only when an attribute changed (a
		// file grew): with a force per commit, far below one pack per
		// partial segment.
		if row.GroupCommit == 1 && row.InodePack*4 > row.Summary {
			t.Fatalf("%+v: an inode pack in more than a quarter of the partial segments", row)
		}
	}
	// Group commit at MPL 8 shares the force: fewer partial segments, fewer
	// blocks per transaction, on both managers.
	for _, sys := range []string{"kernel-lfs", "user-lfs"} {
		if one, eight := rep.Row(sys, 8, 1), rep.Row(sys, 8, 8); eight.Summary >= one.Summary || eight.Blocks >= one.Blocks {
			t.Fatalf("%s at MPL 8: group commit ×8 logs %f blocks (%f summaries) per txn vs %f (%f) without",
				sys, eight.Blocks, eight.Summary, one.Blocks, one.Summary)
		}
	}
	_ = rep.String()
}

func TestFigureMPLSweep(t *testing.T) {
	opts := smallOpts()
	opts.MPLs = []int{1, 4}
	rep, err := FigureMPL(opts)
	if err != nil {
		t.Fatal(err)
	}
	// 3 systems × 2 group-commit settings.
	if len(rep.Series) != 6 {
		t.Fatalf("series = %d", len(rep.Series))
	}
	for _, s := range rep.Series {
		if len(s.Cells) != 2 {
			t.Fatalf("%s gc=%d: cells = %d", s.System, s.GroupCommit, len(s.Cells))
		}
		for _, c := range s.Cells {
			if c.TPS <= 0 {
				t.Fatalf("%s gc=%d mpl=%d produced no throughput", s.System, s.GroupCommit, c.MPL)
			}
		}
		// Concurrency must help the force-per-commit runs: overlapping
		// clients hide the per-commit force latency. (With group commit the
		// MPL=1 run already batches its forces, so no ordering is asserted.)
		if s.GroupCommit == 1 && s.Cells[1].TPS <= s.Cells[0].TPS {
			t.Fatalf("%s gc=%d: MPL=4 (%.2f TPS) should beat MPL=1 (%.2f TPS)",
				s.System, s.GroupCommit, s.Cells[1].TPS, s.Cells[0].TPS)
		}
	}
	out := rep.String()
	if !strings.Contains(out, "MPL sweep") || !strings.Contains(out, "kernel-lfs") {
		t.Fatalf("report formatting broken:\n%s", out)
	}
}

func TestCoalescingCleanerRestoresScan(t *testing.T) {
	rep, err := Figure67(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.LFSScanCoalesced <= 0 {
		t.Fatal("coalesced scan not measured")
	}
	// The coalescing cleaner must recover most of the sequential-read
	// gap the random updates created.
	if rep.LFSScanCoalesced >= rep.LFSScan {
		t.Fatalf("coalescing should speed up the scan: %v → %v", rep.LFSScan, rep.LFSScanCoalesced)
	}
}
