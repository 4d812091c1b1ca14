package tpcb

import "testing"

// signature is the deterministic fingerprint of one run: every field is a
// pure function of the configuration and the seed, so any change here is a
// change in simulated behaviour, not noise.
type signature struct {
	ElapsedNS     int64 // simulated elapsed time of the measured interval
	Dispatches    int64 // scheduler dispatches
	Retries       int64 // deadlock-victim retries
	DiskReads     int64 // read ops, summed over devices
	DiskWrites    int64 // write ops, summed over devices
	BlocksWritten int64 // blocks written, summed over devices
	// CommitBytes is what the transaction manager forced to stable storage
	// for commit: WAL bytes logged (user level, summed over shards) or whole
	// page bytes flushed (kernel).
	CommitBytes int64
}

// TestPinnedSignatures pins the harness's simulated behaviour, configuration
// by configuration. The constants must survive any refactor unedited; a
// change that intends to move a simulated number re-records the affected
// rows in the same change and replaces the table below with its causes. The
// history of earlier re-recordings is in CHANGES.md.
//
// Last re-recorded when the WAL began creating each segment file at full
// length, so that a force which starts a new log block no longer changes the
// file's size and block map. The cause per row is the inode writes of the
// measured run — File.Sync slot stores on user-ffs, inode pack blocks on
// user-lfs — beside elapsed; disk reads, writes and blocks written:
//
//	user-ffs mpl1       49 → 1    −3.90 %; 306 → 305; 946 → 886; 1,470 → 1,673
//	user-lfs mpl1       58 → 9    −0.72 %; 364 → 368; 637 → 635; 2,200 → 2,154
//	user-ffs mpl8       49 → 1    −8.82 %; 356; 405 → 340; 978 → 1,182
//	user-lfs mpl8       56 → 7    −2.46 %; 357; 108 → 106; 1,119 → 1,066
//	user-ffs mpl64      49 → 1    −8.55 %; 335 → 342; 489 → 447; 1,012 → 1,232
//	user-lfs mpl64      55 → 6    −2.89 %; 350 → 346; 183 → 182; 1,246 → 1,193
//	user-ffs mpl256     47 → 1   −17.74 %; 158 → 153; 264 → 218; 866 → 1,083
//	user-lfs mpl256     48 → 1    −3.36 %; 157 → 154; 138 → 139; 1,003 → 958
//	user-lfs partition2 66 → 2    −2.38 %; 230 → 229; 557 → 537; 1,872 → 1,768
//	user-lfs snapshots  56 → 7    −2.13 %; 534; 109 → 107; 1,132 → 1,079
//
// user-ffs writes more blocks: the zero-fill of segment 1 at build is 258.
// Commit bytes move by a few dozen because history records carry the
// simulated time, and at MPL ≥ 8 shorter forces change how commits meet in
// batches, so dispatches move. The five kernel-lfs rows, which have no WAL,
// passed unedited.
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
			signature{22822335037, 1, 0, 305, 886, 1673, 194505}},
		{"user-lfs/mpl1", base("user-lfs", 1), 1, 0,
			signature{23089821068, 1, 0, 368, 635, 2154, 194467}},
		{"kernel-lfs/mpl1", base("kernel-lfs", 1), 1, 0,
			signature{26708270462, 1, 0, 361, 619, 3621, 9830400}},
		{"user-ffs/mpl8", base("user-ffs", 8), 8, 0,
			signature{10744759223, 6261, 0, 356, 340, 1182, 194663}},
		{"user-lfs/mpl8", base("user-lfs", 8), 8, 0,
			signature{9284054376, 6243, 0, 357, 106, 1066, 194525}},
		{"kernel-lfs/mpl8", base("kernel-lfs", 8), 8, 0,
			signature{10013672422, 6586, 0, 308, 87, 1278, 3358720}},
		{"kernel-lfs/mpl8-idle-cleaner", with(base("kernel-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 0.7
		}), 8, 0,
			signature{10283435579, 6574, 0, 357, 89, 1349, 3358720}},
		{"user-ffs/mpl64", base("user-ffs", 8), 64, 0,
			signature{11076025694, 16867, 0, 342, 447, 1232, 194695}},
		{"user-lfs/mpl64", base("user-lfs", 8), 64, 0,
			signature{9589382794, 17038, 0, 346, 182, 1193, 194527}},
		{"kernel-lfs/mpl64", base("kernel-lfs", 8), 64, 0,
			signature{8364540647, 8455, 0, 283, 87, 1244, 3219456}},
		// The shape `txnbench -fig mpl` gives its MPL 256 cells: one buffer per
		// client (CacheBlocks = MPL, see figures.FigureMPL), the kernel's cleaner
		// in idle windows.
		{"user-ffs/mpl256", with(base("user-ffs", 8), func(o *RigOptions) { o.CacheBlocks = 256 }), 256, 0,
			signature{5699822195, 79625, 0, 153, 218, 1083, 194687}},
		{"user-lfs/mpl256", with(base("user-lfs", 8), func(o *RigOptions) { o.CacheBlocks = 256 }), 256, 0,
			signature{5380518907, 79001, 0, 154, 139, 958, 194431}},
		{"kernel-lfs/mpl256", with(base("kernel-lfs", 8), func(o *RigOptions) {
			o.CacheBlocks, o.CleanerMode = 256, "idle"
		}), 256, 0,
			signature{3064163000, 98430, 0, 0, 87, 1203, 3067904}},
		{"user-lfs/mpl8-partition2", with(base("user-lfs", 8), func(o *RigOptions) {
			o.Devices, o.Layout = 2, "partition"
		}), 8, 0,
			signature{11850432815, 7956, 0, 229, 537, 1768, 249446}},
		{"user-lfs/mpl8-snapshot-scans", with(base("user-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 6.0
		}), 8, 2,
			signature{11400030406, 6517, 0, 534, 107, 1079, 194607}},
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
			for _, d := range rig.Devs {
				ds := d.Stats()
				got.DiskReads += ds.Reads
				got.DiskWrites += ds.Writes
				got.BlocksWritten += ds.BlocksWrit
				if row.mpl == 1 && ds.QueueTime != 0 {
					t.Errorf("a lone client must never queue for the disk, got %v", ds.QueueTime)
				}
			}
			for _, env := range rig.Shards {
				got.CommitBytes += env.LogStats().BytesLogged
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
