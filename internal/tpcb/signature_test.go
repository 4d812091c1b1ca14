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
// Last re-recorded when a kernel-lfs commit force (lfs.FS.FlushCommit) whose
// changed bytes fit the summary block began to write that block alone, the
// bytes in patch records, and to leave the pages dirty for write-behind, the
// cleaner or a checkpoint to log whole (lfs/patch.go). Only the five
// kernel-lfs rows moved; elapsed, then the counters that moved:
//
//	kernel-lfs mpl1                −35.77 %; reads 358 → 242; writes 616 → 614; blocks 3,585 → 1,336
//	kernel-lfs mpl8                −15.95 %; dispatches 6,614 → 6,655; reads 308 → 306; writes 85 → 87; blocks 1,272 → 836
//	kernel-lfs mpl8-idle-cleaner   −5.21 %; dispatches 6,614 → 6,640; reads 343 → 398; writes 86 → 91; blocks 1,317 → 1,030
//	kernel-lfs mpl64               −22.13 %; dispatches 8,421 → 11,245; reads 284 → 277; writes 85 → 87; blocks 1,239 → 852; commit bytes +73,728
//	kernel-lfs mpl256              −1.57 %; dispatches 98,356 → 100,231; writes 84 → 85; blocks 1,198 → 446; commit bytes −49,152
//
// At MPL 1 a force was about six blocks, four of them whole pages, and is
// now one; the pages follow by write-behind or the checkpoint, and fewer
// blocks logged means fewer segments to clean and fewer reads. At MPL 8 and
// above a group-commit batch already shared its pages, so the gain is
// smaller. The idle-cleaner row's disk shrank from 0.7 to 0.5 of the
// default: on 0.7 the log no longer wrapped, its cleaner never ran, and the
// row equalled the MPL 8 one; its comparison is with the old row on 0.7.
// The changed timing moves lock waits and commit batches, hence dispatches
// and commit bytes (whole pages, so in steps of 4,096) at MPL 64 and 256.
// The user-ffs and user-lfs rows passed unedited.
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
			signature{16952339060, 1, 0, 242, 614, 1336, 9830400}},
		{"user-ffs/mpl8", base("user-ffs", 8), 8, 0,
			signature{10735849223, 6226, 0, 356, 340, 1182, 194663}},
		{"user-lfs/mpl8", base("user-lfs", 8), 8, 0,
			signature{8851331474, 6215, 0, 357, 101, 981, 194495}},
		{"kernel-lfs/mpl8", base("kernel-lfs", 8), 8, 0,
			signature{8339841925, 6655, 0, 306, 87, 836, 3358720}},
		{"kernel-lfs/mpl8-idle-cleaner", with(base("kernel-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 0.5
		}), 8, 0,
			signature{9401255814, 6640, 0, 398, 91, 1030, 3358720}},
		{"user-ffs/mpl64", base("user-ffs", 8), 64, 0,
			signature{11185909608, 17043, 0, 345, 457, 1238, 194767}},
		{"user-lfs/mpl64", base("user-lfs", 8), 64, 0,
			signature{8923275649, 16826, 0, 348, 177, 1037, 194531}},
		{"kernel-lfs/mpl64", base("kernel-lfs", 8), 64, 0,
			signature{6374871226, 11245, 0, 277, 87, 852, 3297280}},
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
			signature{3013703600, 100231, 0, 0, 85, 446, 3035136}},
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
