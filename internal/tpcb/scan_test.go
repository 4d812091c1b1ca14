package tpcb

import (
	"bytes"
	"strings"
	"testing"
)

// buildMixed builds the mixed OLTP+scan rig: the cleaner-stress shape of
// buildTraced, where kernel-lfs cleans while the scans run.
func buildMixed(t *testing.T, kind string, txns int, traced bool) *Rig {
	t.Helper()
	opts := RigOptions{
		Kind:         kind,
		Config:       smallCfg(),
		ExpectedTxns: txns,
		GroupCommit:  8,
		DiskScale:    0.5,
		Trace:        traced,
	}
	if kind != "user-ffs" {
		opts.CleanerMode = "idle"
	}
	rig, err := BuildRig(opts)
	if err != nil {
		t.Fatalf("BuildRig(%s): %v", kind, err)
	}
	rig.Clock.SetStrict(true)
	return rig
}

// TestMixedScanByteIdentical: two same-seed MPL=8 mixed OLTP + snapshot-scan
// runs with the idle background cleaner produce byte-identical Chrome traces
// and metrics snapshots on both LFS systems — determinism holds with the MVCC
// read path, before-image capture and the cleaner all active. The same
// snapshots also carry the lock-freedom acceptance bit: every scan proc's
// lock-blocked time must be exactly zero.
func TestMixedScanByteIdentical(t *testing.T) {
	const txns, mpl = 600, 8
	for _, kind := range []string{"user-lfs", "kernel-lfs"} {
		t.Run(kind, func(t *testing.T) {
			run := func() (chrome, metrics string) {
				rig := buildMixed(t, kind, txns, true)
				res, err := rig.RunMixed(smallCfg(), txns, mpl, 2, 1, ScanSnapshot)
				if err != nil {
					t.Fatalf("RunMixed: %v", err)
				}
				if res.ScanMode != ScanSnapshot {
					t.Fatalf("LFS rig degraded snapshot mode to %q", res.ScanMode)
				}
				if res.ScanRows == 0 {
					t.Fatal("scans read no rows")
				}
				if kind == "kernel-lfs" && rig.LFS.Stats().Cleaner.SegmentsCleaned == 0 {
					t.Fatal("the cleaner never ran beside the scans")
				}
				var cb, mb bytes.Buffer
				if err := rig.Tracer.WriteChrome(&cb); err != nil {
					t.Fatalf("WriteChrome: %v", err)
				}
				snap := rig.Snapshot(res)
				if snap.Scan == nil || snap.Scan.ScanMode != ScanSnapshot {
					t.Fatalf("snapshot missing scan section: %+v", snap.Scan)
				}
				if n, ok := snap.DeltaPeak(); !ok || n == 0 || !strings.Contains(snap.Render(), "\nmvcc: ") {
					t.Errorf("the report carries no before-image peak for the snapshot scans (%d bytes, %v)", n, ok)
				}
				var sawScanProc bool
				for _, row := range snap.Attribution {
					if !strings.HasPrefix(row.Proc, "scan-") {
						continue
					}
					sawScanProc = true
					if row.Lock != 0 {
						t.Errorf("snapshot-mode scan proc %s blocked %v on locks; want 0", row.Proc, row.Lock)
					}
				}
				if !sawScanProc {
					t.Fatal("no scan proc in the attribution table")
				}
				if err := snap.WriteJSON(&mb); err != nil {
					t.Fatalf("WriteJSON: %v", err)
				}
				return cb.String(), mb.String()
			}
			c1, m1 := run()
			c2, m2 := run()
			if c1 != c2 {
				t.Errorf("chrome traces differ between same-seed runs (lens %d vs %d)", len(c1), len(c2))
			}
			if m1 != m2 {
				t.Errorf("metrics snapshots differ between same-seed runs:\n%s\n---\n%s", m1, m2)
			}
		})
	}
}

// TestMixedScanLockingBlocks is the contrast case: the same workload in
// locking mode must show scan procs actually blocking on locks (that is the
// regression snapshot mode removes), and both modes must agree on the scan's
// row count — the snapshot read path sees the same balances as a locked scan.
func TestMixedScanLockingBlocks(t *testing.T) {
	const txns, mpl = 600, 8
	rig := buildMixed(t, "kernel-lfs", txns, true)
	res, err := rig.RunMixed(smallCfg(), txns, mpl, 2, 1, ScanLocking)
	if err != nil {
		t.Fatalf("RunMixed: %v", err)
	}
	if res.ScanMode != ScanLocking {
		t.Fatalf("asked locking, ran %q", res.ScanMode)
	}
	snap := rig.Snapshot(res)
	var blocked bool
	for _, row := range snap.Attribution {
		if strings.HasPrefix(row.Proc, "scan-") && row.Lock > 0 {
			blocked = true
		}
	}
	if !blocked {
		t.Error("locking-mode scans never blocked on a lock; the contrast with snapshot mode is vacuous")
	}

	snapRig := buildMixed(t, "kernel-lfs", txns, false)
	snapRes, err := snapRig.RunMixed(smallCfg(), txns, mpl, 2, 1, ScanSnapshot)
	if err != nil {
		t.Fatalf("RunMixed(snapshot): %v", err)
	}
	if res.ScanRows != snapRes.ScanRows {
		t.Errorf("scan rows differ across modes: locking %d, snapshot %d", res.ScanRows, snapRes.ScanRows)
	}
}

// TestMixedScanFFSFallback: the user-level system on FFS runs scans under
// locking, which measured faster there than snapshots (DESIGN.md §11), so
// asking for snapshot scans must degrade to locking — reported honestly via
// the effective mode.
func TestMixedScanFFSFallback(t *testing.T) {
	const txns, mpl = 300, 4
	rig := buildMixed(t, "user-ffs", txns, false)
	res, err := rig.RunMixed(smallCfg(), txns, mpl, 1, 1, ScanSnapshot)
	if err != nil {
		t.Fatalf("RunMixed: %v", err)
	}
	if res.ScanMode != ScanLocking {
		t.Fatalf("user-ffs should degrade snapshot scans to locking, ran %q", res.ScanMode)
	}
	if res.ScanRows == 0 {
		t.Fatal("fallback scan read no rows")
	}
}
