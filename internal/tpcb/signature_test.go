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
// Last re-recorded when LIBTP stopped asking the lock manager again for a
// page it writes under a write lock it already holds: four fewer requests,
// and four fewer UserSync charges, per transaction. Elapsed and dispatches
// per row, then where disk reads, writes, blocks written and commit bytes
// moved:
//
//	user-ffs mpl1       −0.93 %; 1 dispatch; blocks 1,673 → 1,674; commit bytes −2
//	user-lfs mpl1       −0.94 %; 1 dispatch; commit bytes −2
//	user-ffs mpl8       −0.08 %; 6,261 → 6,226
//	user-lfs mpl8       −0.03 %; 6,243 → 6,194
//	user-ffs mpl64      +0.99 %; 16,867 → 17,043; 342 → 345; 447 → 457; 1,232 → 1,238; +72
//	user-lfs mpl64      −1.10 %; 17,038 → 17,093; 346 → 342; 182 → 180; +6
//	user-ffs mpl256     −0.54 %; 79,625 → 74,760; 153 → 155; 218 → 216; 1,083 → 1,080; −92
//	user-lfs mpl256     +0.58 %; 79,001 → 74,870; 139 → 136; 958 → 952; −120
//	user-lfs partition2 −1.00 %; 7,956 → 7,967; 537 → 543; 1,768 → 1,780; +72
//	user-lfs snapshots  −0.05 %; 6,517 → 6,458; +20
//
// At MPL 1 a transaction is about 0.36 ms shorter: the four UserSync
// charges; commit bytes move because history records carry the simulated
// time. At MPL ≥ 8 the shorter teller- and branch-leaf critical sections
// change the order clients meet in locks and commit batches, so dispatches
// and the disk counts move either way. The five kernel-lfs rows, whose
// manager locks inside every system call, passed unedited.
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
			signature{22873821068, 1, 0, 368, 635, 2154, 194465}},
		{"kernel-lfs/mpl1", base("kernel-lfs", 1), 1, 0,
			signature{26708270462, 1, 0, 361, 619, 3621, 9830400}},
		{"user-ffs/mpl8", base("user-ffs", 8), 8, 0,
			signature{10735849223, 6226, 0, 356, 340, 1182, 194663}},
		{"user-lfs/mpl8", base("user-lfs", 8), 8, 0,
			signature{9280880924, 6194, 0, 357, 106, 1066, 194525}},
		{"kernel-lfs/mpl8", base("kernel-lfs", 8), 8, 0,
			signature{10013672422, 6586, 0, 308, 87, 1278, 3358720}},
		{"kernel-lfs/mpl8-idle-cleaner", with(base("kernel-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 0.7
		}), 8, 0,
			signature{10283435579, 6574, 0, 357, 89, 1349, 3358720}},
		{"user-ffs/mpl64", base("user-ffs", 8), 64, 0,
			signature{11185909608, 17043, 0, 345, 457, 1238, 194767}},
		{"user-lfs/mpl64", base("user-lfs", 8), 64, 0,
			signature{9483467941, 17093, 0, 342, 180, 1193, 194533}},
		{"kernel-lfs/mpl64", base("kernel-lfs", 8), 64, 0,
			signature{8364540647, 8455, 0, 283, 87, 1244, 3219456}},
		// The shape `txnbench -fig mpl` gives its MPL 256 cells: one buffer per
		// client (CacheBlocks = MPL, see figures.FigureMPL), the kernel's cleaner
		// in idle windows.
		{"user-ffs/mpl256", with(base("user-ffs", 8), func(o *RigOptions) { o.CacheBlocks = 256 }), 256, 0,
			signature{5669212604, 74760, 0, 155, 216, 1080, 194595}},
		{"user-lfs/mpl256", with(base("user-lfs", 8), func(o *RigOptions) { o.CacheBlocks = 256 }), 256, 0,
			signature{5411639697, 74870, 0, 154, 136, 952, 194311}},
		{"kernel-lfs/mpl256", with(base("kernel-lfs", 8), func(o *RigOptions) {
			o.CacheBlocks, o.CleanerMode = 256, "idle"
		}), 256, 0,
			signature{3064163000, 98430, 0, 0, 87, 1203, 3067904}},
		{"user-lfs/mpl8-partition2", with(base("user-lfs", 8), func(o *RigOptions) {
			o.Devices = 2
		}), 8, 0,
			signature{11731735196, 7967, 0, 229, 543, 1780, 249518}},
		{"user-lfs/mpl8-snapshot-scans", with(base("user-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 6.0
		}), 8, 2,
			signature{11394810406, 6458, 0, 534, 107, 1079, 194627}},
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
