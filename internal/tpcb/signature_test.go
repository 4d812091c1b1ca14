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
// Last re-recorded when the cleaner stopped segregating relocated blocks by
// age: a pass writes them all as one stream, where it used to write the older
// half, seal the segment early and write the younger half into the next one.
// Only the two MPL 1 LFS rows segregated (their passes ran with free segments
// above the threshold); the parent's cold / hot split — elapsed; disk reads,
// writes and blocks written; cleaner blocks copied and logged:
//
//	user-lfs   mpl1   38 / 25    −0.08 %; 364; 638 → 637; 2,202 → 2,200; 64; 72 → 70
//	kernel-lfs mpl1   42 / 185   +0.13 %; 355 → 361; 621 → 619; 3,634 → 3,621; 227 → 220; 248 → 235
//
// The one stream saves a summary and an inode pack per split pass; on
// kernel-lfs the segments the cleaner leaves behind differ, so later victims
// differ too. The other thirteen rows passed unedited.
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
			signature{23749454312, 1, 0, 306, 946, 1470, 194473}},
		{"user-lfs/mpl1", base("user-lfs", 1), 1, 0,
			signature{23256902180, 1, 0, 364, 637, 2200, 194471}},
		{"kernel-lfs/mpl1", base("kernel-lfs", 1), 1, 0,
			signature{26708270462, 1, 0, 361, 619, 3621, 9830400}},
		{"user-ffs/mpl8", base("user-ffs", 8), 8, 0,
			signature{11784467812, 6264, 0, 356, 405, 978, 194585}},
		{"user-lfs/mpl8", base("user-lfs", 8), 8, 0,
			signature{9518011857, 6249, 0, 357, 108, 1119, 194521}},
		{"kernel-lfs/mpl8", base("kernel-lfs", 8), 8, 0,
			signature{10013672422, 6586, 0, 308, 87, 1278, 3358720}},
		{"kernel-lfs/mpl8-idle-cleaner", with(base("kernel-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 0.7
		}), 8, 0,
			signature{10283435579, 6574, 0, 357, 89, 1349, 3358720}},
		{"user-ffs/mpl64", base("user-ffs", 8), 64, 0,
			signature{12111914001, 15918, 0, 335, 489, 1012, 194753}},
		{"user-lfs/mpl64", base("user-lfs", 8), 64, 0,
			signature{9875130068, 16472, 0, 350, 183, 1246, 194537}},
		{"kernel-lfs/mpl64", base("kernel-lfs", 8), 64, 0,
			signature{8364540647, 8455, 0, 283, 87, 1244, 3219456}},
		// The shape `txnbench -fig mpl` gives its MPL 256 cells: one buffer per
		// client (CacheBlocks = MPL, see figures.FigureMPL), the kernel's cleaner
		// in idle windows.
		{"user-ffs/mpl256", with(base("user-ffs", 8), func(o *RigOptions) { o.CacheBlocks = 256 }), 256, 0,
			signature{6929319640, 66857, 0, 158, 264, 866, 194269}},
		{"user-lfs/mpl256", with(base("user-lfs", 8), func(o *RigOptions) { o.CacheBlocks = 256 }), 256, 0,
			signature{5567502504, 73520, 0, 157, 138, 1003, 194227}},
		{"kernel-lfs/mpl256", with(base("kernel-lfs", 8), func(o *RigOptions) {
			o.CacheBlocks, o.CleanerMode = 256, "idle"
		}), 256, 0,
			signature{3064163000, 98430, 0, 0, 87, 1203, 3067904}},
		{"user-lfs/mpl8-partition2", with(base("user-lfs", 8), func(o *RigOptions) {
			o.Devices, o.Layout = 2, "partition"
		}), 8, 0,
			signature{12139746580, 7935, 0, 230, 557, 1872, 249570}},
		{"user-lfs/mpl8-snapshot-scans", with(base("user-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 6.0
		}), 8, 2,
			signature{11648064265, 6531, 0, 534, 109, 1132, 194617}},
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
