package tpcb

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// buildIdleRig builds a kernel-lfs rig with the idle-overlapped batched
// cleaner on a disk small enough that the log wraps and cleaning must run:
// half the size 600 transactions are sized for, since most commits log one
// summary block.
func buildIdleRig(t *testing.T) *Rig {
	t.Helper()
	rig, err := BuildRig(RigOptions{
		Kind:         "kernel-lfs",
		Config:       smallCfg(),
		ExpectedTxns: 600,
		CleanerMode:  "idle",
		DiskScale:    0.5,
	})
	if err != nil {
		t.Fatalf("BuildRig: %v", err)
	}
	if rig.Idle == nil {
		t.Fatal("idle rig has no Idle hook")
	}
	return rig
}

// TestIdleCleanerIntegrity drives TPC-B with background cleaning firing
// between transactions and then checks every layer: TPC-B balance
// invariants, fsck, the segment-usage audit, and free-segment accounting.
func TestIdleCleanerIntegrity(t *testing.T) {
	rig := buildIdleRig(t)
	gen := NewGenerator(smallCfg())
	var txns []Txn
	for i := 0; i < 600; i++ {
		tx := gen.Next()
		txns = append(txns, tx)
		if err := rig.Sys.Run(tx); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
		if err := rig.Idle(); err != nil {
			t.Fatalf("idle clean after txn %d: %v", i, err)
		}
	}
	if err := rig.Sys.Drain(); err != nil {
		t.Fatal(err)
	}

	cl := rig.LFS.Stats().Cleaner
	if cl.Runs == 0 || cl.SegmentsCleaned == 0 {
		t.Fatalf("background cleaner never ran: %+v", cl)
	}
	if cl.BusyTime != cl.OverlapTime+cl.StallTime {
		t.Errorf("busy %v != overlap %v + stall %v", cl.BusyTime, cl.OverlapTime, cl.StallTime)
	}

	// No live block lost: the TPC-B invariants read back every relation.
	checkConsistency(t, rig, txns)

	rep, err := rig.LFS.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("fsck after idle cleaning: %v", rep.Problems)
	}

	// Segment-usage table agrees with reachability, and the free count is
	// consistent with the audited per-segment live totals.
	maintained, actual, diff, err := rig.LFS.AuditUsage()
	if err != nil {
		t.Fatal(err)
	}
	if maintained != actual || len(diff) != 0 {
		t.Errorf("usage audit: maintained %d, actual %d, %d segments disagree", maintained, actual, len(diff))
	}
	var dump strings.Builder
	if err := rig.LFS.Dump(&dump); err != nil {
		t.Fatal(err)
	}
	var free, total int64
	_, line, _ := strings.Cut(dump.String(), "free segments: ")
	if _, err := fmt.Sscanf(line, "%d/%d", &free, &total); err != nil {
		t.Fatalf("dump has no free-segment count: %v", err)
	}
	if free <= 0 {
		t.Errorf("free segments = %d after cleaning; want > 0", free)
	}
}

// TestIdleCleanerDeterministic runs the identical seed twice with the
// background cleaner enabled and requires byte-identical results: same
// elapsed simulated time, same file-system stats, same device stats.
func TestIdleCleanerDeterministic(t *testing.T) {
	run := func() (Result, interface{}, interface{}) {
		rig := buildIdleRig(t)
		res, err := rig.RunMPL(smallCfg(), 600, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res, rig.LFS.Stats(), rig.Dev.Stats()
	}
	res1, fst1, dst1 := run()
	res2, fst2, dst2 := run()
	if res1.Elapsed != res2.Elapsed || res1.TPS != res2.TPS {
		t.Errorf("elapsed differs across identical seeds: %v vs %v", res1.Elapsed, res2.Elapsed)
	}
	if !reflect.DeepEqual(fst1, fst2) {
		t.Errorf("lfs stats differ across identical seeds:\n%+v\n%+v", fst1, fst2)
	}
	if !reflect.DeepEqual(dst1, dst2) {
		t.Errorf("device stats differ across identical seeds:\n%+v\n%+v", dst1, dst2)
	}
}
