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
// Last re-recorded when a kernel-lfs commit force that cannot be
// summary-only began to log only its batch's pages in the foreground, and the
// blocks it used to drag along — its files' other dirty and staged blocks —
// and a checkpoint's patched blocks went to the background lane (lfs
// writeBehindLocked); a page logged whole from a commit image keeps the diff
// as its delta. Elapsed, then the counters that moved:
//
//	user-lfs mpl1                  −0.08 %
//	kernel-lfs mpl1                −6.67 %; writes 614 → 615; blocks 1,336 → 1,332
//	kernel-lfs mpl8                −9.79 %; dispatches 6,655 → 6,669; writes 87 → 89; blocks 836 → 838
//	kernel-lfs mpl8-idle-cleaner   +0.29 %; dispatches 6,640 → 6,646; writes 91 → 94; blocks 1,030 → 1,020
//	kernel-lfs mpl64               −3.41 %; dispatches 11,245 → 11,733; reads 277 → 278; writes 87 → 89; blocks 852 → 824; commit bytes −8,192
//
// The burst the committer waited for now drains idle credit first. user-lfs
// moves through its checkpoint only, whose patched WAL blocks take the same
// lane. In the idle-cleaner row the write-behind spends idle credit the
// cleaner used to have, so the cleaner stalls a little more. The changed
// timing moves lock waits and commit batches, hence dispatches and commit
// bytes (whole pages, so in steps of 4,096) at MPL 64. The user-ffs rows and
// kernel-lfs mpl256 passed unedited.
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
			signature{19506602776, 1, 0, 313, 630, 1472, 194445}},
		{"kernel-lfs/mpl1", base("kernel-lfs", 1), 1, 0,
			signature{15821255668, 1, 0, 242, 615, 1332, 9830400}},
		{"user-ffs/mpl8", base("user-ffs", 8), 8, 0,
			signature{10735849223, 6226, 0, 356, 340, 1182, 194663}},
		{"user-lfs/mpl8", base("user-lfs", 8), 8, 0,
			signature{8851331474, 6215, 0, 357, 101, 981, 194495}},
		{"kernel-lfs/mpl8", base("kernel-lfs", 8), 8, 0,
			signature{7523260440, 6669, 0, 306, 89, 838, 3358720}},
		{"kernel-lfs/mpl8-idle-cleaner", with(base("kernel-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 0.5
		}), 8, 0,
			signature{9428964953, 6646, 0, 398, 94, 1020, 3358720}},
		{"user-ffs/mpl64", base("user-ffs", 8), 64, 0,
			signature{11185909608, 17043, 0, 345, 457, 1238, 194767}},
		{"user-lfs/mpl64", base("user-lfs", 8), 64, 0,
			signature{8923275649, 16826, 0, 348, 177, 1037, 194531}},
		{"kernel-lfs/mpl64", base("kernel-lfs", 8), 64, 0,
			signature{6157686608, 11733, 0, 278, 89, 824, 3289088}},
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
