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
// Last re-recorded because a partial segment with no block after its summary
// — every summary-only commit force — writes only the 512-byte sectors its
// summary fills, one sector at these sizes, instead of a whole 4 KB block
// (lfs.writePartialLocked, disk.SectorSize). The write saves 2.87 ms of
// transfer when the arm seeks away before the next access; an access that
// continues at the next block pays the untransferred sectors as rotation, so
// back-to-back forces cost what they did. The user-ffs rows do not move: FFS
// writes whole blocks. Every LFS row gets faster. Block and write counts move
// only where MPL > 1 interleaves differently; the WAL's bytes move with the
// history rows' timestamps, and the kernel's flushed page bytes with how many
// committers each group-commit batch gathers. Before → after:
//
//	user-lfs mpl1                 −3.93 %; commit bytes −14
//	kernel-lfs mpl1               −2.76 %
//	user-lfs mpl8                 −0.98 %; commit bytes −4
//	kernel-lfs mpl8               −2.93 %
//	kernel-lfs mpl8-idle-cleaner  −2.81 %
//	user-lfs mpl64                −0.67 %; dispatches 17,389 → 17,531; reads 219 → 218; blocks 575 → 573; commit bytes −44
//	kernel-lfs mpl64              −0.37 %; dispatches 25,567 → 25,645; reads 126 → 128; writes 79 → 80; blocks 272 → 268; commit bytes +36,864
//	user-lfs mpl256               −0.18 %; dispatches 99,365 → 99,252; commit bytes −84
//	kernel-lfs mpl256             −0.01 %; dispatches 100,231 → 100,219; commit bytes +16,384
//	user-lfs mpl8-snapshot-scans  −0.80 %
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
			signature{16175726549, 1, 0, 226, 614, 1095, 194379}},
		{"kernel-lfs/mpl1", base("kernel-lfs", 1), 1, 0,
			signature{11131404584, 1, 0, 105, 604, 867, 9830400}},
		{"user-ffs/mpl8", base("user-ffs", 8), 8, 0,
			signature{8811709646, 7602, 0, 234, 302, 548, 194557}},
		{"user-lfs/mpl8", base("user-lfs", 8), 8, 0,
			signature{7094876340, 7442, 0, 245, 87, 596, 194367}},
		{"kernel-lfs/mpl8", base("kernel-lfs", 8), 8, 0,
			signature{4861407249, 8554, 0, 145, 78, 283, 3358720}},
		{"kernel-lfs/mpl8-idle-cleaner", with(base("kernel-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 0.5
		}), 8, 0,
			signature{4808451461, 8593, 0, 160, 79, 315, 3358720}},
		{"user-ffs/mpl64", base("user-ffs", 8), 64, 0,
			signature{8018357151, 11119, 0, 214, 318, 532, 194411}},
		{"user-lfs/mpl64", base("user-lfs", 8), 64, 0,
			signature{5560500426, 17531, 0, 218, 85, 573, 194451}},
		{"kernel-lfs/mpl64", base("kernel-lfs", 8), 64, 0,
			signature{3533634053, 25645, 0, 128, 80, 268, 3338240}},
		// The shape `txnbench -fig mpl` gives its MPL 256 cells: one buffer per
		// client (CacheBlocks = MPL, see figures.FigureMPL), the kernel's cleaner
		// in idle windows.
		{"user-ffs/mpl256", with(base("user-ffs", 8), func(o *RigOptions) { o.CacheBlocks = 256 }), 256, 0,
			signature{4903877605, 98566, 0, 81, 144, 416, 194515}},
		{"user-lfs/mpl256", with(base("user-lfs", 8), func(o *RigOptions) { o.CacheBlocks = 256 }), 256, 0,
			signature{4494711361, 99252, 0, 80, 84, 379, 194217}},
		{"kernel-lfs/mpl256", with(base("kernel-lfs", 8), func(o *RigOptions) {
			o.CacheBlocks, o.CleanerMode = 256, "idle"
		}), 256, 0,
			signature{3013294000, 100219, 0, 0, 76, 84, 3051520}},
		{"user-lfs/mpl8-snapshot-scans", with(base("user-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 6.0
		}), 8, 2,
			signature{8899524670, 7930, 0, 358, 86, 593, 194503}},
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
