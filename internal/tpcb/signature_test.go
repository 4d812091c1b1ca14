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
// Last re-recorded when a flush of several partial segments began to fill the
// current segment instead of leaving its tail unwritten, and the 64-block
// data cap per partial went. Elapsed per row, then the counters that moved,
// then the LFS change behind them where the cleaner ran:
//
//	user-lfs mpl1          −4.84 %; reads 368 → 313; writes 635 → 629; blocks 2,154 → 2,067; commit bytes −6
//	                       the cleaner no longer runs (1 pass, 8 segments, 72 blocks copied → none)
//	kernel-lfs mpl1        −1.17 %; reads 361 → 358; writes 619 → 616; blocks 3,621 → 3,586
//	                       16 → 14 segments cleaned, 220 → 194 blocks copied
//	user-lfs mpl8          −1.49 %; dispatches 6,194 → 6,204; writes 106 → 103; blocks 1,066 → 1,059; commit bytes −18
//	kernel-lfs mpl8        −0.92 %; dispatches 6,586 → 6,614; writes 87 → 85; blocks 1,278 → 1,272
//	kernel-lfs idle        −3.55 %; dispatches 6,574 → 6,614; reads 357 → 343; writes 89 → 86; blocks 1,349 → 1,317
//	                       4 → 2 segments cleaned, 65 → 42 blocks copied
//	user-lfs mpl64         −0.40 %; dispatches 17,093 → 17,074; reads 342 → 350; writes 180 → 169; blocks 1,193 → 1,166; commit bytes +140
//	kernel-lfs mpl64       −2.13 %; dispatches 8,455 → 8,421; reads 283 → 284; writes 87 → 85; blocks 1,244 → 1,239; commit bytes +4,096
//	user-lfs mpl256        −3.14 %; dispatches 74,870 → 75,429; writes 136 → 134; blocks 952 → 947; commit bytes −10
//	kernel-lfs mpl256      −0.08 %; dispatches 98,430 → 98,356; writes 87 → 84; blocks 1,203 → 1,198; commit bytes +16,384
//	user-lfs partition2    −0.54 %; dispatches 7,967 → 8,012; writes 543 → 542; blocks 1,780 → 1,777; commit bytes −6
//	user-lfs snapshots     −1.26 %; dispatches 6,458 → 6,473; reads 534 → 533; writes 107 → 104; blocks 1,079 → 1,070; commit bytes −18
//
// Where the cleaner runs, fewer segments consumed means fewer cleaned and
// fewer victim reads. Elsewhere a full flush is fewer, fuller partials — one
// to eleven fewer partials and four to eleven fewer inode-pack and pointer
// blocks a row — and the log head crosses fewer segments, so the disk is
// busy for less (user-lfs mpl8: 10.62 → 10.41 s for the same reads). The
// changed timing moves lock waits and commit batches, hence dispatches and
// commit bytes (history records carry the simulated time) either way. The
// four user-ffs rows passed unedited.
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
			signature{21767631834, 1, 0, 313, 629, 2067, 194459}},
		{"kernel-lfs/mpl1", base("kernel-lfs", 1), 1, 0,
			signature{26392333669, 1, 0, 358, 616, 3585, 9830400}},
		{"user-ffs/mpl8", base("user-ffs", 8), 8, 0,
			signature{10735849223, 6226, 0, 356, 340, 1182, 194663}},
		{"user-lfs/mpl8", base("user-lfs", 8), 8, 0,
			signature{9142158789, 6204, 0, 357, 103, 1059, 194507}},
		{"kernel-lfs/mpl8", base("kernel-lfs", 8), 8, 0,
			signature{9921898985, 6614, 0, 308, 85, 1272, 3358720}},
		{"kernel-lfs/mpl8-idle-cleaner", with(base("kernel-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 0.7
		}), 8, 0,
			signature{9918090379, 6614, 0, 343, 86, 1317, 3358720}},
		{"user-ffs/mpl64", base("user-ffs", 8), 64, 0,
			signature{11185909608, 17043, 0, 345, 457, 1238, 194767}},
		{"user-lfs/mpl64", base("user-lfs", 8), 64, 0,
			signature{9445297259, 17074, 0, 350, 169, 1166, 194673}},
		{"kernel-lfs/mpl64", base("kernel-lfs", 8), 64, 0,
			signature{8186635927, 8421, 0, 284, 85, 1239, 3223552}},
		// The shape `txnbench -fig mpl` gives its MPL 256 cells: one buffer per
		// client (CacheBlocks = MPL, see figures.FigureMPL), the kernel's cleaner
		// in idle windows.
		{"user-ffs/mpl256", with(base("user-ffs", 8), func(o *RigOptions) { o.CacheBlocks = 256 }), 256, 0,
			signature{5669212604, 74760, 0, 155, 216, 1080, 194595}},
		{"user-lfs/mpl256", with(base("user-lfs", 8), func(o *RigOptions) { o.CacheBlocks = 256 }), 256, 0,
			signature{5241568796, 75429, 0, 154, 134, 947, 194301}},
		{"kernel-lfs/mpl256", with(base("kernel-lfs", 8), func(o *RigOptions) {
			o.CacheBlocks, o.CleanerMode = 256, "idle"
		}), 256, 0,
			signature{3061645642, 98356, 0, 0, 84, 1198, 3084288}},
		{"user-lfs/mpl8-partition2", with(base("user-lfs", 8), func(o *RigOptions) {
			o.Devices = 2
		}), 8, 0,
			signature{11667885631, 8012, 0, 229, 542, 1777, 249512}},
		{"user-lfs/mpl8-snapshot-scans", with(base("user-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 6.0
		}), 8, 2,
			signature{11251093976, 6473, 0, 533, 104, 1070, 194609}},
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
