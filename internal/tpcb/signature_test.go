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
// Last re-recorded because a block LFS's cache evicts with an empty delta is
// parked as its durable image (lfs.FS.writeback): read back from the stage,
// it is measured against that copy, so a commit force of it writes one
// summary block, and a File.Sync no longer logs its file whole because a
// durable block of it is staged. Commit forces with blocks (counted from
// format, the load's included) fall to each WAL file's first on user-lfs and
// to none on kernel-lfs; no staged block is dragged behind them. On the
// user-lfs rows the WAL's patched blocks now wait in the stage for the next
// full-stage flush instead of going out with those forces, so the stage
// flushes database blocks earlier and serves fewer re-reads: reads rise and,
// at MPL 1 and 8, elapsed too. user-ffs and kernel-lfs mpl256 (no eviction)
// did not move. Before → after:
//
//	user-lfs mpl1                  +1.62 %; reads 312 → 325; writes 614 → 613; blocks 1,094 → 1,100; forces with blocks 13 → 6
//	kernel-lfs mpl1                −4.78 %; reads 241 → 219; writes 605 → 604; blocks 963 → 867; forces with blocks 1 → 0
//	user-lfs mpl8                  +3.49 %; dispatches 6,113 → 5,906; reads 356 → 372; writes 85 → 87; blocks 603 → 605; commit bytes +6; forces with blocks 13 → 6
//	kernel-lfs mpl8               −11.12 %; dispatches 6,669 → 7,130; reads 305 → 269; writes 79 → 78; blocks 469 → 363; forces with blocks 2 → 0
//	kernel-lfs mpl8-idle-cleaner  −22.53 %; dispatches 6,646 → 7,118; reads 397 → 305; writes 84 → 79; blocks 651 → 418; forces with blocks 2 → 0
//	user-lfs mpl64                 −1.20 %; dispatches 8,908 → 10,306; reads 349 → 357; writes 85 → 86; blocks 574 → 576; commit bytes −6; forces with blocks 12 → 7
//	kernel-lfs mpl64              −15.38 %; dispatches 11,733 → 15,251; reads 277 → 242; writes 79 → 78; blocks 455 → 351; commit bytes +12,288; forces with blocks 2 → 0
//	user-lfs mpl256                −3.51 %; blocks 425 → 379; forces with blocks 7 → 6
//	user-lfs mpl8-snapshot-scans   +1.93 %; dispatches 6,666 → 6,560; reads 537 → 545; writes 86 → 87; blocks 617 → 602; commit bytes +8; forces with blocks 15 → 6
//
// Faster kernel forces change the MPL > 1 interleaving, hence dispatches and,
// on kernel-lfs mpl64, which pages one batch carries (commit bytes).
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
			signature{22539950037, 1, 0, 303, 851, 1039, 194503}},
		{"user-lfs/mpl1", base("user-lfs", 1), 1, 0,
			signature{19787114707, 1, 0, 325, 613, 1100, 194445}},
		{"kernel-lfs/mpl1", base("kernel-lfs", 1), 1, 0,
			signature{15065231998, 1, 0, 219, 604, 867, 9830400}},
		{"user-ffs/mpl8", base("user-ffs", 8), 8, 0,
			signature{10633798992, 6109, 0, 354, 301, 547, 194661}},
		{"user-lfs/mpl8", base("user-lfs", 8), 8, 0,
			signature{9152770113, 5906, 0, 372, 87, 605, 194497}},
		{"kernel-lfs/mpl8", base("kernel-lfs", 8), 8, 0,
			signature{6686690921, 7130, 0, 269, 78, 363, 3358720}},
		{"kernel-lfs/mpl8-idle-cleaner", with(base("kernel-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 0.5
		}), 8, 0,
			signature{7304149896, 7118, 0, 305, 79, 418, 3358720}},
		{"user-ffs/mpl64", base("user-ffs", 8), 64, 0,
			signature{10050366167, 7354, 0, 337, 337, 524, 194497}},
		{"user-lfs/mpl64", base("user-lfs", 8), 64, 0,
			signature{7754267927, 10306, 0, 357, 86, 576, 194277}},
		{"kernel-lfs/mpl64", base("kernel-lfs", 8), 64, 0,
			signature{5210370192, 15251, 0, 242, 78, 351, 3301376}},
		// The shape `txnbench -fig mpl` gives its MPL 256 cells: one buffer per
		// client (CacheBlocks = MPL, see figures.FigureMPL), the kernel's cleaner
		// in idle windows.
		{"user-ffs/mpl256", with(base("user-ffs", 8), func(o *RigOptions) { o.CacheBlocks = 256 }), 256, 0,
			signature{4886318490, 71882, 0, 155, 149, 415, 194465}},
		{"user-lfs/mpl256", with(base("user-lfs", 8), func(o *RigOptions) { o.CacheBlocks = 256 }), 256, 0,
			signature{4509850795, 79160, 0, 155, 84, 379, 194085}},
		{"kernel-lfs/mpl256", with(base("kernel-lfs", 8), func(o *RigOptions) {
			o.CacheBlocks, o.CleanerMode = 256, "idle"
		}), 256, 0,
			signature{3013703600, 100231, 0, 0, 76, 84, 3035136}},
		{"user-lfs/mpl8-snapshot-scans", with(base("user-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 6.0
		}), 8, 2,
			signature{11707591992, 6560, 0, 545, 87, 602, 194523}},
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
