package tpcb

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestFewerTxnsThanClients: with n < mpl the surplus clients get a zero
// quota; the run still executes exactly n transactions and reports them.
func TestFewerTxnsThanClients(t *testing.T) {
	rig := buildSmallGC(t, "user-lfs", 4)
	res, err := rig.RunMPL(smallCfg(), 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Txns != 3 || res.MPL != 8 {
		t.Fatalf("result = %+v, want Txns 3 at MPL 8", res)
	}
	if st := rig.Env.Stats(); st.Committed != 3 {
		t.Fatalf("%d transactions committed, want 3", st.Committed)
	}
}

// TestNegativeTxnsRejected: a negative transaction count is an error, not a
// run that reports negative throughput; so are an MPL below one and a
// negative count of scanners or scans, which once made a slice of negative
// length or ran no scans.
func TestNegativeTxnsRejected(t *testing.T) {
	rig := buildSmallGC(t, "user-lfs", 1)
	if _, err := rig.RunMPL(smallCfg(), -3, 1); err == nil {
		t.Fatal("RunMPL ran -3 transactions")
	}
	for _, c := range [][3]int{{0, 0, 0}, {-4, 0, 0}, {1, -1, 1}, {1, 2, -2}} {
		if _, err := rig.RunMixed(smallCfg(), 10, c[0], c[1], c[2], ScanSnapshot); err == nil {
			t.Fatalf("RunMixed ran at MPL %d with %d scanners of %d scans", c[0], c[1], c[2])
		}
	}
	if _, err := BuildRig(RigOptions{Kind: "user-lfs", Config: smallCfg(), LogSegmentBytes: -5}); err == nil {
		t.Fatal("BuildRig took a negative log segment size")
	}
}

// TestBadScaleRejected: a scale that is NaN, infinite or not positive is an
// error, as is a disk too large to allocate; each once ran a 100-account
// database or panicked in disk.New.
func TestBadScaleRejected(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -2} {
		if CheckScale("-scale", v) == nil {
			t.Fatalf("CheckScale took %g", v)
		}
		if v == 0 {
			continue // the default disk
		}
		if _, err := BuildRig(RigOptions{Kind: "user-lfs", Config: smallCfg(), DiskScale: v}); err == nil {
			t.Fatalf("BuildRig took disk scale %g", v)
		}
	}
	_, err := BuildRig(RigOptions{Kind: "user-ffs", Config: ScaledConfig(1e9)})
	if err == nil || !strings.Contains(err.Error(), "blocks") {
		t.Fatalf("BuildRig at scale 1e9: %v, want an error naming the block count", err)
	}
}

// TestIdleCleanerRunsBetweenTransactions: with CleanerMode "idle" the
// between-transactions hook cleans. The disk, half the default, is sized so
// that 600 transactions wrap the log.
func TestIdleCleanerRunsBetweenTransactions(t *testing.T) {
	const txns = 600
	cfg := ScaledConfig(0.01)
	opts := RigOptions{Kind: "user-lfs", Config: cfg, ExpectedTxns: txns, GroupCommit: 8, CleanerMode: "idle", DiskScale: 0.5}
	rig, err := BuildRig(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rig.RunMPL(cfg, txns, 8); err != nil {
		t.Fatal(err)
	}
	if cl := rig.LFS.Stats().Cleaner; cl.Runs == 0 {
		t.Fatalf("the idle cleaner never ran: %+v", cl)
	}
}

// TestCrashPointsCountFromPowerOn: the rig's device counts write ops from
// its creation, so the format and load writes are crash points too, while
// its statistics count the measured run only.
func TestCrashPointsCountFromPowerOn(t *testing.T) {
	cfg := smallCfg()
	rig, err := BuildRig(RigOptions{Kind: "user-lfs", Config: cfg, ExpectedTxns: 200})
	if err != nil {
		t.Fatal(err)
	}
	loaded := rig.Dev.WriteOps()
	if loaded == 0 || rig.Dev.Stats().Writes != 0 {
		t.Fatalf("after the load: %d crash-model write ops, %d in the stats; want some and none",
			loaded, rig.Dev.Stats().Writes)
	}
	if _, err := rig.RunMPL(cfg, 20, 1); err != nil {
		t.Fatal(err)
	}
	if got, want := rig.Dev.WriteOps()-loaded, rig.Dev.Stats().Writes; got != want || got == 0 {
		t.Fatalf("crash model counted %d write ops in the run, the device issued %d", got, want)
	}
}

// failingDrain is a system whose drain costs simulated time and then fails.
type failingDrain struct {
	System
	clock *sim.Clock
}

func (s failingDrain) Drain() error {
	s.clock.Advance(time.Millisecond)
	return errors.New("drain failed")
}

// TestDrainErrorClosesTracerProc: a failed drain must still close its
// tracer proc, so the attribution report shows what the drain cost instead
// of an open interval reported as zero.
func TestDrainErrorClosesTracerProc(t *testing.T) {
	rig := buildTraced(t, "user-lfs", 50, 0.7, true)
	rig.Sys = failingDrain{rig.Sys, rig.Clock}
	if _, err := rig.RunMPL(smallCfg(), 50, 1); err == nil || !strings.Contains(err.Error(), "drain failed") {
		t.Fatalf("err = %v, want the drain's", err)
	}
	for _, row := range rig.Tracer.Attribution() {
		if row.Proc == "drain" {
			if row.Elapsed != time.Millisecond {
				t.Fatalf("drain row elapsed = %v, want the 1ms the failed drain took", row.Elapsed)
			}
			return
		}
	}
	t.Fatal("no drain row in the attribution report")
}
