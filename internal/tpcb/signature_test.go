package tpcb

import "testing"

// signature is the deterministic fingerprint of one run: every field is a
// pure function of the configuration and the seed, so any change here is a
// change in simulated behaviour, not noise.
type signature struct {
	ElapsedNS     int64 // simulated elapsed time of the measured interval
	Dispatches    int64 // scheduler dispatches
	Retries       int64 // deadlock-victim retries
	DiskReads     int64 // read ops
	DiskWrites    int64 // write ops
	BlocksWritten int64 // blocks written
	// CommitBytes is what the transaction manager forced to stable storage
	// for commit: WAL bytes logged (user level) or whole page bytes flushed
	// (kernel).
	CommitBytes int64
}

// TestPinnedSignatures pins the harness's simulated behaviour, configuration
// by configuration. The constants must survive any refactor unedited; a
// change that intends to move a simulated number re-records the affected
// rows in the same change and replaces the table below with its causes. The
// history of earlier re-recordings is in CHANGES.md.
//
// Last re-recorded because a full-stage flush leaves dirty the cached blocks
// the full-stage flush before it had found dirty (lfs.maybeFlushStageLocked):
// a hot page is logged by its eviction or the checkpoint, not at every flush.
// Only LFS rows that fill the stage move; user-ffs, kernel-lfs mpl1 (no full
// stage) and the MPL 256 rows did not. The kernel rows log fewer blocks; at
// this size about half of that is blocks still dirty when the run ends (89 →
// 126 at MPL 64), which the kernel's drain leaves to the next checkpoint. The
// user-lfs rows write theirs in the drain's checkpoint (Env.Checkpoint), in
// the foreground: user-lfs mpl8 gets slower because its last full-stage flush
// left 22 blocks that the drain then logs, its disk time 0.567 → 0.617 s;
// the write-behind that no longer writes them was mostly absorbed by idle
// windows (overlapped 0.995 → 0.916 s, stalled 0.995 → 0.985 s). Everything else
// moves through timing: dispatches with the MPL > 1 interleaving, the WAL's
// bytes with the history rows' timestamps. Before → after:
//
//	user-lfs mpl1                 −0.17 %; reads 228 → 226; writes 613 → 614; blocks 1,100 → 1,095
//	user-lfs mpl8                 +0.87 %; dispatches 7,441 → 7,442; reads 244 → 245; blocks 604 → 596; commit bytes −20
//	kernel-lfs mpl8               −0.37 %; dispatches 8,557 → 8,554; reads 146 → 145; blocks 363 → 283
//	kernel-lfs mpl8-idle-cleaner  −5.79 %; dispatches 8,565 → 8,593; reads 176 → 160; blocks 418 → 315
//	user-lfs mpl64                −0.46 %; dispatches 17,397 → 17,389; blocks 581 → 575; commit bytes −42
//	kernel-lfs mpl64              −9.20 %; dispatches 25,497 → 25,567; reads 131 → 126; writes 80 → 79; blocks 353 → 272
//	user-lfs mpl8-snapshot-scans  −0.83 %; dispatches 7,848 → 7,930; reads 362 → 358; writes 87 → 86; blocks 601 → 593; commit bytes +2
func TestPinnedSignatures(t *testing.T) {
	const txns = 600
	cfg := ScaledConfig(0.01)
	base := func(kind string, gc int) RigOptions {
		return RigOptions{Kind: kind, Config: cfg, ExpectedTxns: txns, GroupCommit: gc}
	}
	with := func(o RigOptions, f func(*RigOptions)) RigOptions { f(&o); return o }
	rows := []struct {
		name     string
		opts     RigOptions
		mpl      int
		scanners int // snapshot scan clients, one full account scan each
		want     signature
	}{
		{"user-ffs/mpl1", base("user-ffs", 1), 1, 0,
			signature{20101570525, 1, 0, 200, 855, 1038, 194487}},
		{"user-lfs/mpl1", base("user-lfs", 1), 1, 0,
			signature{16838049749, 1, 0, 226, 614, 1095, 194393}},
		{"kernel-lfs/mpl1", base("kernel-lfs", 1), 1, 0,
			signature{11446796584, 1, 0, 105, 604, 867, 9830400}},
		{"user-ffs/mpl8", base("user-ffs", 8), 8, 0,
			signature{8811709646, 7602, 0, 234, 302, 548, 194557}},
		{"user-lfs/mpl8", base("user-lfs", 8), 8, 0,
			signature{7165327540, 7442, 0, 245, 87, 596, 194371}},
		{"kernel-lfs/mpl8", base("kernel-lfs", 8), 8, 0,
			signature{5008044049, 8554, 0, 145, 78, 283, 3358720}},
		{"kernel-lfs/mpl8-idle-cleaner", with(base("kernel-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 0.5
		}), 8, 0,
			signature{4947715461, 8593, 0, 160, 79, 315, 3358720}},
		{"user-ffs/mpl64", base("user-ffs", 8), 64, 0,
			signature{8018357151, 11119, 0, 214, 318, 532, 194411}},
		{"user-lfs/mpl64", base("user-lfs", 8), 64, 0,
			signature{5598154035, 17389, 0, 219, 85, 575, 194495}},
		{"kernel-lfs/mpl64", base("kernel-lfs", 8), 64, 0,
			signature{3546584095, 25567, 0, 126, 79, 272, 3301376}},
		// The shape `txnbench -fig mpl` gives its MPL 256 cells: one buffer per
		// client (CacheBlocks = MPL, see figures.FigureMPL), the kernel's cleaner
		// in idle windows.
		{"user-ffs/mpl256", with(base("user-ffs", 8), func(o *RigOptions) { o.CacheBlocks = 256 }), 256, 0,
			signature{4903877605, 98566, 0, 81, 144, 416, 194515}},
		{"user-lfs/mpl256", with(base("user-lfs", 8), func(o *RigOptions) { o.CacheBlocks = 256 }), 256, 0,
			signature{4502849922, 99365, 0, 80, 84, 379, 194301}},
		{"kernel-lfs/mpl256", with(base("kernel-lfs", 8), func(o *RigOptions) {
			o.CacheBlocks, o.CleanerMode = 256, "idle"
		}), 256, 0,
			signature{3013703600, 100231, 0, 0, 76, 84, 3035136}},
		{"user-lfs/mpl8-snapshot-scans", with(base("user-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 6.0
		}), 8, 2,
			signature{8971614270, 7930, 0, 358, 86, 593, 194503}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			rig, err := BuildRig(row.opts)
			if err != nil {
				t.Fatal(err)
			}
			rig.Clock.SetStrict(true)
			var res Result
			if row.scanners > 0 {
				mixed, err := rig.RunMixed(cfg, txns, row.mpl, row.scanners, 1, ScanSnapshot)
				if err != nil {
					t.Fatal(err)
				}
				if mixed.ScanMode != ScanSnapshot || mixed.ScanRows != int64(row.scanners)*cfg.Accounts {
					t.Fatalf("scans ran as %s over %d rows", mixed.ScanMode, mixed.ScanRows)
				}
				res = mixed.Result
			} else if res, err = rig.RunMPL(cfg, txns, row.mpl); err != nil {
				t.Fatal(err)
			}
			got := signature{ElapsedNS: int64(res.Elapsed), Dispatches: res.Dispatches, Retries: res.Retries}
			ds := rig.Dev.Stats()
			got.DiskReads, got.DiskWrites, got.BlocksWritten = ds.Reads, ds.Writes, ds.BlocksWrit
			if row.mpl == 1 && ds.QueueTime != 0 {
				t.Errorf("a lone client must never queue for the disk, got %v", ds.QueueTime)
			}
			if rig.Env != nil {
				got.CommitBytes = rig.Env.LogStats().BytesLogged
			}
			if rig.Core != nil {
				got.CommitBytes = rig.Core.Stats().BytesFlushed
			}
			if got != row.want {
				t.Fatalf("signature moved:\n got  %+v\n want %+v", got, row.want)
			}
		})
	}
}
