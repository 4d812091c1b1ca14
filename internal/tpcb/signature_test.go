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
// Last re-recorded because LIBTP's buffer manager keeps the write-ahead-log
// rule per page (libtp.Env.writeback): a dirty page forces the log before its
// write-back only if the log is not yet durable through the page's last
// record, where it used to force whatever the log held. Every write-back in
// these rows found its page's records durable, so every force a write-back
// used to issue is gone; the kernel-lfs rows did not move. Before → after,
// with the log's forces and the lock table's blocked time:
//
//	user-ffs mpl1                  −0.31 %; writes 857 → 851; blocks 1,045 → 1,039; forces 607 → 601
//	user-lfs mpl1                  −0.18 %; writes 620 → 614; blocks 1,100 → 1,094; forces 607 → 601
//	user-ffs mpl8                  −0.95 %; dispatches 6,232 → 6,109; writes 311 → 301; blocks 553 → 547; commit bytes −2; forces 82 → 76; blocked 6.66 → 2.55 s
//	user-lfs mpl8                  −0.09 %; dispatches 6,221 → 6,113; writes 91 → 85; blocks 609 → 603; commit bytes −4; forces 82 → 76; blocked 5.42 → 2.58 s
//	user-ffs mpl64                 −8.65 %; dispatches 17,802 → 7,354; reads 339 → 337; writes 414 → 337; blocks 602 → 524; commit bytes −172; forces 152 → 76; blocked 186 → 13 s
//	user-lfs mpl64                −11.71 %; dispatches 17,702 → 8,908; reads 345 → 349; writes 165 → 85; blocks 668 → 574; commit bytes −198; forces 154 → 76; blocked 151 → 18 s
//	user-ffs mpl256               −13.08 %; dispatches 74,639 → 71,882; writes 190 → 149; blocks 453 → 415; commit bytes −62; forces 114 → 76; blocked 444 → 355 s
//	user-lfs mpl256                −9.73 %; dispatches 80,018 → 79,160; writes 126 → 84; blocks 467 → 425; commit bytes −260; forces 117 → 77; blocked 477 → 396 s
//	user-lfs mpl8-snapshot-scans   −1.92 %; dispatches 6,790 → 6,666; reads 538 → 537; writes 92 → 86; blocks 626 → 617; commit bytes −72; forces 82 → 76; blocked 5.33 → 2.45 s
//
// At MPL 1 the six forces that went are the ones a write-back issued in the
// middle of a transaction, for the running transaction's own records. At
// MPL > 1 a write-back no longer forces an open batch's records while its
// evicting transaction holds the hot teller and branch leaves, so the others
// stop queueing behind it: fewer lock waits, fuller batches (76 forces for
// 600 commits at group commit 8), and the changed timing moves dispatches,
// reads and commit bytes.
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
			signature{19471707744, 1, 0, 312, 614, 1094, 194445}},
		{"kernel-lfs/mpl1", base("kernel-lfs", 1), 1, 0,
			signature{15821255668, 1, 0, 241, 605, 963, 9830400}},
		{"user-ffs/mpl8", base("user-ffs", 8), 8, 0,
			signature{10633798992, 6109, 0, 354, 301, 547, 194661}},
		{"user-lfs/mpl8", base("user-lfs", 8), 8, 0,
			signature{8844091665, 6113, 0, 356, 85, 603, 194491}},
		{"kernel-lfs/mpl8", base("kernel-lfs", 8), 8, 0,
			signature{7523260440, 6669, 0, 305, 79, 469, 3358720}},
		{"kernel-lfs/mpl8-idle-cleaner", with(base("kernel-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 0.5
		}), 8, 0,
			signature{9428964953, 6646, 0, 397, 84, 651, 3358720}},
		{"user-ffs/mpl64", base("user-ffs", 8), 64, 0,
			signature{10050366167, 7354, 0, 337, 337, 524, 194497}},
		{"user-lfs/mpl64", base("user-lfs", 8), 64, 0,
			signature{7848829014, 8908, 0, 349, 85, 574, 194283}},
		{"kernel-lfs/mpl64", base("kernel-lfs", 8), 64, 0,
			signature{6157686608, 11733, 0, 277, 79, 455, 3289088}},
		// The shape `txnbench -fig mpl` gives its MPL 256 cells: one buffer per
		// client (CacheBlocks = MPL, see figures.FigureMPL), the kernel's cleaner
		// in idle windows.
		{"user-ffs/mpl256", with(base("user-ffs", 8), func(o *RigOptions) { o.CacheBlocks = 256 }), 256, 0,
			signature{4886318490, 71882, 0, 155, 149, 415, 194465}},
		{"user-lfs/mpl256", with(base("user-lfs", 8), func(o *RigOptions) { o.CacheBlocks = 256 }), 256, 0,
			signature{4673823563, 79160, 0, 155, 84, 425, 194085}},
		{"kernel-lfs/mpl256", with(base("kernel-lfs", 8), func(o *RigOptions) {
			o.CacheBlocks, o.CleanerMode = 256, "idle"
		}), 256, 0,
			signature{3013703600, 100231, 0, 0, 76, 84, 3035136}},
		{"user-lfs/mpl8-snapshot-scans", with(base("user-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 6.0
		}), 8, 2,
			signature{11485507488, 6666, 0, 537, 86, 617, 194515}},
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
