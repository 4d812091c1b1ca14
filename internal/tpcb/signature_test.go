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
			signature{18085041313, 6814, 147, 413, 919, 1097, 244116}},
		{"user-lfs/mpl8", base("user-lfs", 8), 8, 0,
			signature{10857450501, 10577, 357, 358, 108, 1182, 276988}},
		{"kernel-lfs/mpl8", base("kernel-lfs", 8), 8, 0,
			signature{10518868282, 6630, 0, 308, 87, 1427, 3694592}},
		{"kernel-lfs/mpl8-idle-cleaner", with(base("kernel-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 0.7
		}), 8, 0,
			signature{10855239578, 6621, 0, 361, 89, 1508, 3694592}},
		{"user-lfs/mpl8-partition2", with(base("user-lfs", 8), func(o *RigOptions) {
			o.Devices, o.Layout = 2, "partition"
		}), 8, 0,
			signature{13266822861, 15819, 735, 236, 552, 2370, 415049}},
		{"user-lfs/mpl8-snapshot-scans", with(base("user-lfs", 8), func(o *RigOptions) {
			o.CleanerMode, o.DiskScale = "idle", 6.0
		}), 8, 2,
			signature{12193377581, 10889, 355, 535, 109, 1196, 276862}},
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
