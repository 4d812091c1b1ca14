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
// Last re-recorded because an FFS in-place write that the sweep does not
// coalesce into a run moves only the 512-byte sectors through its block's
// last changed byte (ffs.noteWrite, disk.Queue): a WAL force rewrites the
// log's tail block and changes its header and the payload it appends. The WAL
// block header now also carries the length and CRC of the payload the block
// held durable before the rewrite (wal.encodeBlock), so that a rewrite torn at
// a sector boundary keeps it; on user-lfs those header bytes ride in the
// commit force's patches, which moves its MPL > 1 rows slightly. The kernel
// rows and user-lfs mpl1 do not move. Block and write counts move only where
// MPL > 1 interleaves differently; the WAL's bytes move with the history
// rows' timestamps. Before → after:
//
//	user-ffs mpl1                 −3.71 %; writes 855 → 856; blocks 1,038 → 1,039; commit bytes −6
//	user-ffs mpl8                 −0.16 %
//	user-lfs mpl8                 +0.02 %
//	user-ffs mpl64                +0.24 %; dispatches 11,119 → 11,252; reads 214 → 215; writes 318 → 320; blocks 532 → 534; commit bytes +86
//	user-lfs mpl64                +0.10 %; dispatches 17,531 → 17,498; commit bytes +2
//	user-ffs mpl256               −0.34 %; dispatches 98,566 → 98,554; writes 144 → 142; blocks 416 → 415; commit bytes +62
//	user-lfs mpl256               +0.004 %; dispatches 99,252 → 99,241
//	user-lfs mpl8-snapshot-scans  +0.02 %
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
			signature{19355279325, 1, 0, 200, 856, 1039, 194481}},
		{"user-lfs/mpl1", base("user-lfs", 1), 1, 0,
			signature{16175726549, 1, 0, 226, 614, 1095, 194379}},
		{"kernel-lfs/mpl1", base("kernel-lfs", 1), 1, 0,
			signature{11131404584, 1, 0, 105, 604, 867, 9830400}},
		{"user-ffs/mpl8", base("user-ffs", 8), 8, 0,
			signature{8797783246, 7602, 0, 234, 302, 548, 194557}},
		{"user-lfs/mpl8", base("user-lfs", 8), 8, 0,
			signature{7096105140, 7442, 0, 245, 87, 596, 194367}},
		{"kernel-lfs/mpl8", base("kernel-lfs", 8), 8, 0,
			signature{4861407249, 8554, 0, 145, 78, 283, 3358720}},
		{"kernel-lfs/mpl8-idle-cleaner", with(base("kernel-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 0.5
		}), 8, 0,
			signature{4808451461, 8593, 0, 160, 79, 315, 3358720}},
		{"user-ffs/mpl64", base("user-ffs", 8), 64, 0,
			signature{8037669681, 11252, 0, 215, 320, 534, 194497}},
		{"user-lfs/mpl64", base("user-lfs", 8), 64, 0,
			signature{5566147499, 17498, 0, 218, 85, 573, 194453}},
		{"kernel-lfs/mpl64", base("kernel-lfs", 8), 64, 0,
			signature{3533634053, 25645, 0, 128, 80, 268, 3338240}},
		// The shape `txnbench -fig mpl` gives its MPL 256 cells: one buffer per
		// client (CacheBlocks = MPL, see figures.FigureMPL), the kernel's cleaner
		// in idle windows.
		{"user-ffs/mpl256", with(base("user-ffs", 8), func(o *RigOptions) { o.CacheBlocks = 256 }), 256, 0,
			signature{4887297337, 98554, 0, 81, 142, 415, 194577}},
		{"user-lfs/mpl256", with(base("user-lfs", 8), func(o *RigOptions) { o.CacheBlocks = 256 }), 256, 0,
			signature{4494882061, 99241, 0, 80, 84, 379, 194217}},
		{"kernel-lfs/mpl256", with(base("kernel-lfs", 8), func(o *RigOptions) {
			o.CacheBlocks, o.CleanerMode = 256, "idle"
		}), 256, 0,
			signature{3013294000, 100219, 0, 0, 76, 84, 3051520}},
		{"user-lfs/mpl8-snapshot-scans", with(base("user-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 6.0
		}), 8, 2,
			signature{8901163070, 7930, 0, 358, 86, 593, 194503}},
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
