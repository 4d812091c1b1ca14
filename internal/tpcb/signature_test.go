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
// Last re-recorded when a user-lfs commit force whose changed bytes fit the
// summary block began to write that block alone, the bytes in patch records
// (lfs/patch.go), and to leave the WAL block for write-behind or a checkpoint
// to log whole. Only the six user-lfs rows moved; elapsed, then the counters
// that moved:
//
//	user-lfs mpl1          −10.31 %; writes 629 → 630; blocks 2,067 → 1,472; commit bytes −14
//	user-lfs mpl8          −3.18 %; dispatches 6,204 → 6,215; writes 103 → 101; blocks 1,059 → 981; commit bytes −12
//	user-lfs mpl64         −5.53 %; dispatches 17,074 → 16,826; reads 350 → 348; writes 169 → 177; blocks 1,166 → 1,037; commit bytes −142
//	user-lfs mpl256        −3.09 %; dispatches 75,429 → 80,115; blocks 947 → 831; commit bytes +48
//	user-lfs partition2    −11.31 %; dispatches 8,012 → 7,768; reads 229 → 230; writes 542 → 532; blocks 1,777 → 1,262; commit bytes −28
//	user-lfs snapshots     −2.72 %; dispatches 6,473 → 6,510; writes 104 → 102; blocks 1,070 → 995; commit bytes −8
//
// At MPL 1 nearly every force is one block instead of two or three, so the
// blocks written fall by about 600 and each commit waits one transfer less.
// At MPL 8 and above a group-commit force carries several commits' bytes and
// more of them overflow the summary, so the gain is smaller. The changed
// timing moves lock waits and commit batches, hence dispatches and commit
// bytes (history records carry the simulated time) either way. The user-ffs
// and kernel-lfs rows passed unedited.
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
			signature{22609611837, 1, 0, 305, 886, 1674, 194503}},
		{"user-lfs/mpl1", base("user-lfs", 1), 1, 0,
			signature{19522986776, 1, 0, 313, 630, 1472, 194445}},
		{"kernel-lfs/mpl1", base("kernel-lfs", 1), 1, 0,
			signature{26392333669, 1, 0, 358, 616, 3585, 9830400}},
		{"user-ffs/mpl8", base("user-ffs", 8), 8, 0,
			signature{10735849223, 6226, 0, 356, 340, 1182, 194663}},
		{"user-lfs/mpl8", base("user-lfs", 8), 8, 0,
			signature{8851331474, 6215, 0, 357, 101, 981, 194495}},
		{"kernel-lfs/mpl8", base("kernel-lfs", 8), 8, 0,
			signature{9921898985, 6614, 0, 308, 85, 1272, 3358720}},
		{"kernel-lfs/mpl8-idle-cleaner", with(base("kernel-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 0.7
		}), 8, 0,
			signature{9918090379, 6614, 0, 343, 86, 1317, 3358720}},
		{"user-ffs/mpl64", base("user-ffs", 8), 64, 0,
			signature{11185909608, 17043, 0, 345, 457, 1238, 194767}},
		{"user-lfs/mpl64", base("user-lfs", 8), 64, 0,
			signature{8923275649, 16826, 0, 348, 177, 1037, 194531}},
		{"kernel-lfs/mpl64", base("kernel-lfs", 8), 64, 0,
			signature{8186635927, 8421, 0, 284, 85, 1239, 3223552}},
		// The shape `txnbench -fig mpl` gives its MPL 256 cells: one buffer per
		// client (CacheBlocks = MPL, see figures.FigureMPL), the kernel's cleaner
		// in idle windows.
		{"user-ffs/mpl256", with(base("user-ffs", 8), func(o *RigOptions) { o.CacheBlocks = 256 }), 256, 0,
			signature{5669212604, 74760, 0, 155, 216, 1080, 194595}},
		{"user-lfs/mpl256", with(base("user-lfs", 8), func(o *RigOptions) { o.CacheBlocks = 256 }), 256, 0,
			signature{5079786430, 80115, 0, 154, 134, 831, 194349}},
		{"kernel-lfs/mpl256", with(base("kernel-lfs", 8), func(o *RigOptions) {
			o.CacheBlocks, o.CleanerMode = 256, "idle"
		}), 256, 0,
			signature{3061645642, 98356, 0, 0, 84, 1198, 3084288}},
		{"user-lfs/mpl8-snapshot-scans", with(base("user-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 6.0
		}), 8, 2,
			signature{10945119016, 6510, 0, 533, 102, 995, 194601}},
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
