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
// Last re-recorded because the write-behind stage keeps what it wrote
// (ufs.Stage's kept state): a flush leaves each staged block it wrote that no
// cached buffer holds readable in its frame until a later park reclaims it,
// and a cache miss on the block reads it there instead of the disk. At this
// scale the stage's 128 frames are large beside each cache, so about half of
// all reads go. Everything else moves through timing: faster transactions
// change the MPL > 1 interleaving (dispatches; and, at MPL 64, how blocks
// group into FFS sweeps and LFS partials); a history row carries the
// simulated time it was written at, so the WAL's bytes move by a few dozen.
// kernel-lfs mpl256 (no eviction) did not move. At MPL 256 the one-block
// cache share per client leaves the run bound by the branch-lock convoy, not
// the disk: on user-ffs the disk queue falls from 1 m 31 s to 3 s (`txnbench
// -fig mpl` at this size) while lock-blocked time grows from 5 m 55 s to
// 8 m 24 s, and elapsed rises 0.36 %. Before → after:
//
//	user-ffs mpl1                 −10.82 %; reads 303 → 200; writes 851 → 855; blocks 1,039 → 1,038; commit bytes −16
//	user-lfs mpl1                 −14.76 %; reads 325 → 228; commit bytes −52
//	kernel-lfs mpl1               −24.02 %; reads 219 → 105
//	user-ffs mpl8                 −17.13 %; dispatches 6,109 → 7,602; reads 354 → 234; writes 301 → 302; blocks 547 → 548; commit bytes −104
//	user-lfs mpl8                 −22.39 %; dispatches 5,906 → 7,441; reads 372 → 244; blocks 605 → 604; commit bytes −106
//	kernel-lfs mpl8               −24.82 %; dispatches 7,130 → 8,557; reads 269 → 146
//	kernel-lfs mpl8-idle-cleaner  −28.10 %; dispatches 7,118 → 8,565; reads 305 → 176
//	user-ffs mpl64                −20.22 %; dispatches 7,354 → 11,119; reads 337 → 214; writes 337 → 318; blocks 524 → 532; commit bytes −86
//	user-lfs mpl64                −27.47 %; dispatches 10,306 → 17,397; reads 357 → 219; writes 86 → 85; blocks 576 → 581; commit bytes +260
//	kernel-lfs mpl64              −25.04 %; dispatches 15,251 → 25,497; reads 242 → 131; writes 78 → 80; blocks 351 → 353
//	user-ffs mpl256                +0.36 %; dispatches 71,882 → 98,566; reads 155 → 81; writes 149 → 144; blocks 415 → 416; commit bytes +50
//	user-lfs mpl256                −0.16 %; dispatches 79,160 → 99,365; reads 155 → 80; commit bytes +216
//	user-lfs mpl8-snapshot-scans  −22.73 %; dispatches 6,560 → 7,848; reads 545 → 362; blocks 602 → 601; commit bytes −22
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
			signature{16866874143, 1, 0, 228, 613, 1100, 194393}},
		{"kernel-lfs/mpl1", base("kernel-lfs", 1), 1, 0,
			signature{11446796584, 1, 0, 105, 604, 867, 9830400}},
		{"user-ffs/mpl8", base("user-ffs", 8), 8, 0,
			signature{8811709646, 7602, 0, 234, 302, 548, 194557}},
		{"user-lfs/mpl8", base("user-lfs", 8), 8, 0,
			signature{7103273066, 7441, 0, 244, 87, 604, 194391}},
		{"kernel-lfs/mpl8", base("kernel-lfs", 8), 8, 0,
			signature{5026789609, 8557, 0, 146, 78, 363, 3358720}},
		{"kernel-lfs/mpl8-idle-cleaner", with(base("kernel-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 0.5
		}), 8, 0,
			signature{5251891869, 8565, 0, 176, 79, 418, 3358720}},
		{"user-ffs/mpl64", base("user-ffs", 8), 64, 0,
			signature{8018357151, 11119, 0, 214, 318, 532, 194411}},
		{"user-lfs/mpl64", base("user-lfs", 8), 64, 0,
			signature{5624204983, 17397, 0, 219, 85, 581, 194537}},
		{"kernel-lfs/mpl64", base("kernel-lfs", 8), 64, 0,
			signature{3905883579, 25497, 0, 131, 80, 353, 3301376}},
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
			signature{9046814989, 7848, 0, 362, 87, 601, 194501}},
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
