package tpcb

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestRunMixedRejectsScansOnShards: a partitioned rig has no transactional
// scan, and the driver must say so before it has run anything.
func TestRunMixedRejectsScansOnShards(t *testing.T) {
	cfg := smallCfg()
	rig, err := BuildRig(RigOptions{Kind: "user-lfs", Config: cfg, ExpectedTxns: 200, Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := rig.Clock.Now()
	_, err = rig.RunMixed(cfg, 100, 4, 2, 1, ScanSnapshot)
	if err == nil || !strings.Contains(err.Error(), "does not support scans") {
		t.Fatalf("RunMixed with scanners on 2 shards: err = %v, want \"does not support scans\"", err)
	}
	if now := rig.Clock.Now(); now != before {
		t.Fatalf("the clock moved %v before the scans were refused", now-before)
	}
	for i, env := range rig.Shards {
		if st := env.Stats(); st.Begun != 0 {
			t.Fatalf("shard %d began %d transactions before the scans were refused", i, st.Begun)
		}
	}
	// Without scanners the same rig runs.
	if _, err := rig.RunMixed(cfg, 100, 4, 0, 0, ScanNone); err != nil {
		t.Fatal(err)
	}
}

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

// TestIdleCleaningByShardCount: the between-transactions cleaner works on
// the one-file-system rig — through the same builder that makes the
// partitioned ones — and is refused where there is no single LFS to clean.
// The disk is sized so that 600 transactions wrap the one-shard log.
func TestIdleCleaningByShardCount(t *testing.T) {
	const txns = 600
	cfg := ScaledConfig(0.01)
	opts := RigOptions{Kind: "user-lfs", Config: cfg, ExpectedTxns: txns, GroupCommit: 8, CleanerMode: "idle", DiskScale: 0.6}
	rig, err := BuildRig(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rig.RunMPL(cfg, txns, 8); err != nil {
		t.Fatal(err)
	}
	if cl := rig.LFS.Stats().Cleaner; cl.Runs == 0 {
		t.Fatalf("the idle cleaner never ran on the one-shard rig: %+v", cl)
	}
	opts.Devices = 2
	if _, err := BuildRig(opts); err == nil || !strings.Contains(err.Error(), "not supported on partitioned rigs") {
		t.Fatalf("idle cleaning on 2 shards: err = %v, want a refusal", err)
	}
}

// TestBuildRigRefusesKernelOnDevices: more than one device means one
// transaction environment and log per device, which the embedded system does
// not have.
func TestBuildRigRefusesKernelOnDevices(t *testing.T) {
	_, err := BuildRig(RigOptions{Kind: "kernel-lfs", Config: smallCfg(), Devices: 2})
	if err == nil || !strings.Contains(err.Error(), "user-level") {
		t.Fatalf("kernel-lfs on 2 devices: err = %v, want a refusal naming the user-level kinds", err)
	}
}

// TestCrashPointsCountFromPowerOn: a rig joins each device to its crash set
// when it creates it, so the format and load writes are crash points too,
// and a one-device rig's crash set counts exactly its device's write ops.
func TestCrashPointsCountFromPowerOn(t *testing.T) {
	rig, err := BuildRig(RigOptions{Kind: "user-lfs", Config: smallCfg(), ExpectedTxns: 200})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rig.Crash.WriteOps(), rig.Dev.Stats().Writes; got != want || got == 0 {
		t.Fatalf("crash set counted %d write ops, the device issued %d since its creation", got, want)
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
