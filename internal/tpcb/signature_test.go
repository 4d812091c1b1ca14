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
// by configuration. The constants were recorded at the commit before the
// harness collapse (one client loop, one user-level system, one rig builder)
// and must survive any refactor unedited; a change that intends to move a
// simulated number re-records the affected rows in the same PR and says why.
//
// Re-recorded since: the four user-level MPL 8 rows, when the user-level
// systems began reading balances for update (write lock at first touch; no
// upgrade deadlocks, so 147 / 357 / 735 / 355 retries became 0 and the aborted
// attempts' log records went away). The MPL 1 rows and every kernel-lfs row
// passed that change unedited. The MPL 64 rows were added with it; the
// kernel-lfs one matches the commit before it to the nanosecond.
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
			signature{41930950742, 1, 0, 370, 1932, 2112, 221507}},
		{"user-lfs/mpl1", base("user-lfs", 1), 1, 0,
			signature{27466665589, 1, 0, 402, 637, 2821, 221477}},
		{"kernel-lfs/mpl1", base("kernel-lfs", 1), 1, 0,
			signature{32102584801, 1, 0, 383, 631, 5080, 12288000}},
		{"user-ffs/mpl8", base("user-ffs", 8), 8, 0,
			signature{18034181719, 5048, 0, 413, 920, 1093, 221631}},
		{"user-lfs/mpl8", base("user-lfs", 8), 8, 0,
			signature{10765046265, 6175, 0, 358, 108, 1168, 221549}},
		{"kernel-lfs/mpl8", base("kernel-lfs", 8), 8, 0,
			signature{10518868282, 6630, 0, 308, 87, 1427, 3694592}},
		{"kernel-lfs/mpl8-idle-cleaner", with(base("kernel-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 0.7
		}), 8, 0,
			signature{10855239578, 6621, 0, 361, 89, 1508, 3694592}},
		{"user-ffs/mpl64", base("user-ffs", 8), 64, 0,
			signature{18960143525, 17303, 0, 402, 1029, 1198, 221919}},
		{"user-lfs/mpl64", base("user-lfs", 8), 64, 0,
			signature{10355567279, 16133, 0, 351, 183, 1375, 221679}},
		{"kernel-lfs/mpl64", base("kernel-lfs", 8), 64, 0,
			signature{8877896392, 8468, 0, 283, 87, 1394, 3559424}},
		{"user-lfs/mpl8-partition2", with(base("user-lfs", 8), func(o *RigOptions) {
			o.Devices, o.Layout = 2, "partition"
		}), 8, 0,
			signature{13350668816, 8032, 0, 230, 532, 2277, 276468}},
		{"user-lfs/mpl8-snapshot-scans", with(base("user-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 6.0
		}), 8, 2,
			signature{12130524154, 6471, 0, 535, 109, 1182, 221621}},
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
