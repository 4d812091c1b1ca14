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
// Last re-recorded for two causes at once. (1) BuildRig resets the device's
// counters after the bulk load, so reads, writes and blocks written count the
// measured run only: every row lost the load's 0–2 reads, 9–29 writes and
// 362–629 blocks, and nothing else moved in the MPL 1 and kernel-lfs rows.
// (2) A block being read is busy until its read completes (buffer.Pool.Await):
// a proc that finds a block another proc's fetch has not delivered yet, in
// simulated time, waits for it. That moved the user-level MPL > 1 rows (the
// counters below are the measured run's, before → after the rule):
//
//	user-ffs mpl8                  −0.003 %; dispatches 6,226 → 6,232
//	user-lfs mpl8                  +0.009 %; dispatches 6,215 → 6,221
//	user-ffs mpl64                 −1.64 %; dispatches 17,043 → 17,802; reads 343 → 339; writes 428 → 414; blocks 609 → 602; commit bytes −98
//	user-lfs mpl64                 −0.38 %; dispatches 16,826 → 17,702; reads 347 → 345; writes 167 → 165; blocks 665 → 668; commit bytes −50
//	user-ffs mpl256                −0.84 %; dispatches 74,760 → 74,639; reads 154 → 155; commit bytes −68
//	user-lfs mpl256                +1.93 %; dispatches 80,115 → 80,018; reads 154 → 155; writes 125 → 126; blocks 466 → 467; commit bytes −4
//	user-lfs mpl8-snapshot-scans   +6.99 %; dispatches 6,510 → 6,790; reads 532 → 538; blocks 623 → 626; commit bytes −14
//
// The kernel's writers lock a page before they read it, and no kernel row
// here met a block in flight. In the scan row the two snapshot scanners now
// share each read of the kernel cache instead of leapfrogging, so the scans
// run one read at a time and finish later. The changed timing moves lock
// waits and commit batches, hence dispatches and commit bytes.
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
			signature{22609611837, 1, 0, 303, 857, 1045, 194503}},
		{"user-lfs/mpl1", base("user-lfs", 1), 1, 0,
			signature{19506602776, 1, 0, 312, 620, 1100, 194445}},
		{"kernel-lfs/mpl1", base("kernel-lfs", 1), 1, 0,
			signature{15821255668, 1, 0, 241, 605, 963, 9830400}},
		{"user-ffs/mpl8", base("user-ffs", 8), 8, 0,
			signature{10735510792, 6232, 0, 354, 311, 553, 194663}},
		{"user-lfs/mpl8", base("user-lfs", 8), 8, 0,
			signature{8852129258, 6221, 0, 356, 91, 609, 194495}},
		{"kernel-lfs/mpl8", base("kernel-lfs", 8), 8, 0,
			signature{7523260440, 6669, 0, 305, 79, 469, 3358720}},
		{"kernel-lfs/mpl8-idle-cleaner", with(base("kernel-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 0.5
		}), 8, 0,
			signature{9428964953, 6646, 0, 397, 84, 651, 3358720}},
		{"user-ffs/mpl64", base("user-ffs", 8), 64, 0,
			signature{11002610740, 17802, 0, 339, 414, 602, 194669}},
		{"user-lfs/mpl64", base("user-lfs", 8), 64, 0,
			signature{8889423888, 17702, 0, 345, 165, 668, 194481}},
		{"kernel-lfs/mpl64", base("kernel-lfs", 8), 64, 0,
			signature{6157686608, 11733, 0, 277, 79, 455, 3289088}},
		// The shape `txnbench -fig mpl` gives its MPL 256 cells: one buffer per
		// client (CacheBlocks = MPL, see figures.FigureMPL), the kernel's cleaner
		// in idle windows.
		{"user-ffs/mpl256", with(base("user-ffs", 8), func(o *RigOptions) { o.CacheBlocks = 256 }), 256, 0,
			signature{5621808252, 74639, 0, 155, 190, 453, 194527}},
		{"user-lfs/mpl256", with(base("user-lfs", 8), func(o *RigOptions) { o.CacheBlocks = 256 }), 256, 0,
			signature{5177610564, 80018, 0, 155, 126, 467, 194345}},
		{"kernel-lfs/mpl256", with(base("kernel-lfs", 8), func(o *RigOptions) {
			o.CacheBlocks, o.CleanerMode = 256, "idle"
		}), 256, 0,
			signature{3013703600, 100231, 0, 0, 76, 84, 3035136}},
		{"user-lfs/mpl8-snapshot-scans", with(base("user-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 6.0
		}), 8, 2,
			signature{11710398706, 6790, 0, 538, 92, 626, 194587}},
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
