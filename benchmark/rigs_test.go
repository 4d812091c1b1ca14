package main

import (
	"testing"

	"repro/internal/tpcb"
)

// TestDecoratorIsNeutral runs each workload at test size on each system
// twice, through the benchmark's timing decorator and directly through the
// repository's own drivers, and requires the same simulated outcome to the
// nanosecond: the decorator only reads the clock.
func TestDecoratorIsNeutral(t *testing.T) {
	t.Parallel()
	for _, w := range workloads {
		w = w.withN(testSize(w))
		for _, kind := range systems {
			p := runPass(w, kind, 1993, 0, false, "")
			if p.Err != "" {
				t.Fatalf("%s on %s: %s", w.Name, kind, p.Err)
			}
			opts := rigOptions(w, kind, 1993, false)
			rig, err := tpcb.BuildRig(opts)
			if err != nil {
				t.Fatal(err)
			}
			var elapsed = p.SimElapsed
			var dispatches, retries, txnRetries int64
			if w.Scanners > 0 {
				res, err := rig.RunMixed(opts.Config, w.N, w.MPL, w.Scanners, w.ScansEach, tpcb.ScanSnapshot)
				if err != nil {
					t.Fatal(err)
				}
				elapsed, dispatches = res.WriterElapsed, res.Dispatches
				retries, txnRetries = res.Retries+res.ScanRetries, res.Retries
			} else {
				res, err := rig.RunMPL(opts.Config, w.N, w.MPL)
				if err != nil {
					t.Fatal(err)
				}
				elapsed, dispatches, retries, txnRetries = res.Elapsed, res.Dispatches, res.Retries, res.Retries
			}
			if p.SimElapsed != elapsed || p.Dispatches != dispatches || p.Retries != retries {
				t.Errorf("%s on %s: decorated run took %v, %d dispatches, %d retries; undecorated %v, %d, %d",
					w.Name, kind, p.SimElapsed, p.Dispatches, p.Retries, elapsed, dispatches, retries)
			}
			if p.Committed != int64(w.N) || p.Attempts != p.Committed+txnRetries {
				t.Errorf("%s on %s: decorator saw %d attempts and %d commits, drivers report %d transactions + %d retries",
					w.Name, kind, p.Attempts, p.Committed, w.N, txnRetries)
			}
		}
	}
}

// TestSeedChangesTheRun: the same seed reproduces a pass exactly, another
// seed (or another stream of the same seed) does not.
func TestSeedChangesTheRun(t *testing.T) {
	t.Parallel()
	w := workloads[0].withN(testSize(workloads[0]))
	a := runPass(w, "kernel-lfs", 1, 0, false, "").signature()
	if b := runPass(w, "kernel-lfs", 1, 0, false, "").signature(); a != b {
		t.Errorf("the same seed gave two signatures:%s", a.diff(b))
	}
	if b := runPass(w, "kernel-lfs", 2, 0, false, "").signature(); a == b {
		t.Errorf("seeds 1 and 2 gave the same signature %+v", a)
	}
	if b := runPass(w, "kernel-lfs", 1, 1, false, "").signature(); a == b {
		t.Errorf("streams 0 and 1 gave the same signature %+v", a)
	}
}
