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
//
// Every row, when commit forces stopped logging what roll-forward can rebuild.
// Two causes, measured apart by applying each to the commit before:
// (r) a history append rewrites the recno tail page only — no meta page — so
// the WAL loses one update record per transaction (CommitBytes −12 %, e.g.
// 221,507 → 194,511) and the embedded manager flushes 4 pages per transaction
// instead of 5 (12,288,000 → 9,830,400 at MPL 1; the batched rows share the
// history page already and lose less); (p) an LFS commit force packs the inode
// only when an attribute changed, so most partial segments are a block shorter.
//
//	user-ffs   mpl1, mpl8, mpl64    (r) only: FFS is untouched; elapsed −0.3 %, +0.3 %, −0.8 %
//	user-lfs   mpl1                 (r) −0.3 % elapsed; (p) 2,821 → 2,205 blocks written, −9.8 %; both −10.7 %
//	kernel-lfs mpl1                 (r) −8.1 %; (p) −8.1 %; both 5,080 → 3,634 blocks written, elapsed −16.9 %
//	user-lfs   mpl8, mpl64          (r) +0.9 %, −1.3 %; (p) −1.0 %, −4.5 %; both −0.2 %, −4.3 %
//	kernel-lfs mpl8, idle, mpl64    (r) −2.7 %, −2.9 %, −2.9 %; (p) −2.1 %, −2.3 %, −2.6 %; both −4.8 %, −6.0 %, −5.8 %
//	user-lfs   partition2           (r) −1.1 %; (p) −6.6 % (two logs, two packs a force); both −9.2 %
//	user-lfs   snapshot-scans       (r) +0.6 %; (p) −0.9 %; both −0.6 %
//
// Dispatches and disk reads move with the interleaving; retries stay 0.
//
// user-lfs/mpl8-partition2 alone, when both transaction managers began to
// commit through one group-commit rendezvous (sim.Batch) at every MPL: the
// run's last live client no longer has its commits acknowledged ahead of the
// force (the WAL's private commit counter deferred them to the drain's
// checkpoint once every other client had finished), so its shards' logs are
// forced four more times: elapsed 12,117,989,745 → 12,144,204,145 ns, disk
// writes 553 → 557, blocks written 1,864 → 1,872; dispatches, retries, reads
// and commit bytes equal. The other eleven rows passed unedited.
//
// The three MPL 256 rows were added with the page-frame recycling change and
// recorded at the commit before it.
//
// The four user-ffs rows, when FFS adopted the Sync contract LFS has had since
// commit forces stopped packing pointer-only inodes (vfs.File.Sync). Three
// causes, each applied alone to the commit before — elapsed; disk writes;
// blocks written:
// (s) File.Sync stores the inode only when the size or the block map changed,
// so a log force that rewrites the WAL's tail block in place is one device
// write, not two; (z) a just-allocated block enters the cache zeroed instead
// of being read from the device when first written in part (two reads fewer
// in every row; at MPL 1 one of the zeroed blocks is evicted once more);
// (u) the 30-second syncer stores the inodes File.Sync now leaves Dirty — only
// the MPL 1 row runs long enough, 41.8 s, for a pass to find one.
//
//	user-ffs mpl1    (s) −27.2 %; 1,932 → 1,376; 2,105 → 1,542   (z) −0.03 %; 1,933; 2,105   (u) +0.1 %; 1,935; 2,108   all −27.2 %; 1,379; 1,545
//	user-ffs mpl8    (s) −4.0 %; 918 → 880; 1,086 → 1,048        (z) −0.1 %; 918; 1,086      (u) none                  all −4.1 %; 880; 1,048
//	user-ffs mpl64   (s) −9.9 %; 1,017 → 938; 1,180 → 1,090      (z) −0.06 %; 1,017; 1,180   (u) none                  all −10.0 %; 938; 1,090
//	user-ffs mpl256  (s) −13.0 %; 455 → 421; 928 → 874           (z) +0.03 %; 455; 928       (u) none                  all −13.0 %; 420; 874
//
// The group-commit rows lose less: their forces already share one inode write
// among up to eight commits. The other eleven rows passed unedited.
//
// The four user-ffs rows again, when FFS began staging evicted dirty blocks in
// the table LFS stages them in (ufs.Stage) and sweeping them into place in
// C-SCAN order, instead of writing each one synchronously where it stands. One
// cause — elapsed; disk reads, writes and blocks written: a sweep of the stage
// is a few sorted runs, not one positioned write per eviction (writes fall by a
// third to a half); a block evicted and dirtied again before the sweep is
// written once (blocks written fall); an evicted block read again soon comes
// from the stage, not the disk (reads fall). The history rows carry the
// simulated time and the WAL logs a page's changed byte range, so commit bytes
// move by a few bytes with the clock.
//
//	user-ffs mpl1    −15.2 %; 368 → 308; 1,379 → 948; 1,545 → 1,471
//	user-ffs mpl8    −26.2 %; 410 → 356; 880 → 408; 1,048 → 980 (dispatches 5,198 → 6,270)
//	user-ffs mpl64   −28.2 %; 394 → 335; 938 → 489; 1,090 → 1,013
//	user-ffs mpl256   −8.7 %; 160 → 159; 420 → 269; 874 → 868
//
// The other eleven rows passed unedited: the LFS side of the change moved the
// staging table into internal/ufs without moving a byte.
//
// The nine user-ffs / user-lfs rows that move, when the WAL stopped keeping a
// sidecar index file per segment (recovery seeks by the LSN's arithmetic).
// These runs never rotate or reopen the log, so two of its four mechanisms —
// an index sync at seal, an index rewrite at Open — never ran here; the two
// that did, each measured apart on the commit before — elapsed; disk reads,
// writes and blocks written:
// (w) no index WriteAt per completed log block (47 a run; 60 over
// partition2's two logs): no dirty index-file blocks to cache, stage, flush
// or log, and reads fall where those blocks no longer pushed a page out; on
// LFS this is the whole change;
// (c) no .idx create: FFS wrote the new inode through at once, about one
// write op in each FFS row (the causes do not add exactly at MPL > 1: the
// interleaving shifts); on LFS the inode rode the segment file's flush.
// Elapsed moves the history rows' timestamps, so commit bytes move by a few
// bytes with the clock.
//
//	user-ffs mpl1          (w) −0.21 %   both −0.26 %; 308 → 306; 948 → 946; 1,471 → 1,470
//	user-lfs mpl1          (w) = both    −0.28 %; 366 → 364; 638; 2,205 → 2,202
//	user-ffs mpl8          (w) −0.16 %   both −0.25 %; 356; 408 → 405; 980 → 978
//	user-lfs mpl8          (w) = both    −0.15 %; 358 → 357; 108; 1,121 → 1,119
//	user-ffs mpl64         (w) −0.05 %   both −0.15 %; 335; 489; 1,013 → 1,012
//	user-lfs mpl64         (w) = both    −0.01 %; 349 → 350; 183; 1,252 → 1,246
//	user-ffs mpl256        (w) −1.15 %   both −0.83 %; 159 → 158; 269 → 264; 868 → 866
//	user-lfs partition2    (w) = both    −0.04 %; 231 → 230; 557; 1,872
//	user-lfs snapshot-scans (w) = both   −0.05 %; 534; 109; 1,134 → 1,132
//
// Dispatches move with the interleaving; retries stay 0. user-lfs/mpl256 and
// every kernel-lfs row passed unedited.
//
// Eight rows, when write-behind moved to the device's background lane (FFS's
// syncer pass and full-stage sweep, LFS's full-stage partial segment) and an
// unabsorbed background residue began to take the arm like a foreground
// request: it waits for the request in service, and later ones queue behind
// it. Only elapsed moves — reads, writes, blocks written, commit bytes,
// dispatches and retries are equal: the same blocks go out in the same order,
// at other simulated times. Two causes, each applied alone to the commit
// before — elapsed; write-behind busy = overlapped + stalled:
// (l) the lane alone, with a residue still sharing the arm as the idle
// cleaner's did; (a) the arm rule alone.
//
//	user-ffs mpl1            (l) −7.84 %  (a) none     both −7.84 %; 3 sweeps, 2.46 s = 2.02 + 0.44
//	user-lfs mpl1            (l) −4.85 %  (a) none     both −4.85 %; 2.00 s = 1.19 + 0.81
//	user-ffs mpl8            (l) −8.19 %  (a) none     both −7.79 %; 3 sweeps, 2.48 s = 1.00 + 1.49
//	user-lfs mpl8            (l) −11.25 % (a) none     both −11.23 %; 2.02 s = 1.20 + 0.81
//	kernel-lfs mpl8-idle     (l) none     (a) +0.82 %  both +0.82 %; the idle cleaner's 0.28 s residue now takes the arm
//	user-ffs mpl64           (l) −4.94 %  (a) none     both −0.21 %; 3 sweeps, 2.43 s = 0.03 + 2.40
//	user-lfs mpl64           (l) −2.60 %  (a) none     both −0.36 %; 2.01 s = 0.04 + 1.98
//	user-lfs snapshot-scans  (l) −4.04 %  (a) none     both −3.37 %; 2.00 s = 0.41 + 1.60
//
// With both, each user row's elapsed falls by exactly its overlapped time; the
// lane alone gained more at MPL 64 by running residues beside requests already
// holding the arm. The other kernel rows' write-behind (1.16 s in each) finds
// no idle credit and stalls in full, as before; the MPL 256 and partition2
// rows fill no stage.
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
			signature{23276407899, 1, 0, 364, 638, 2202, 194471}},
		{"kernel-lfs/mpl1", base("kernel-lfs", 1), 1, 0,
			signature{26673422969, 1, 0, 355, 621, 3634, 9830400}},
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
