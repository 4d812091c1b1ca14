package tpcb

import (
	"bytes"
	"fmt"
	"testing"
)

// buildTraced builds the cleaner-stress rig of TestMPLCleanerDeterminism
// (shrunken disk, idle background cleaner, group commit) with or without a
// tracer attached. The disk is sized for txns transactions, then scaled by
// diskScale: small enough that kernel-lfs cleans, but a smaller disk than
// the rig's history needs will not format.
func buildTraced(t *testing.T, kind string, txns int, diskScale float64, traced bool) *Rig {
	t.Helper()
	opts := RigOptions{
		Kind:         kind,
		Config:       smallCfg(),
		ExpectedTxns: txns,
		GroupCommit:  8,
		DiskScale:    diskScale,
		Trace:        traced,
	}
	if kind != "user-ffs" {
		opts.CleanerMode = "idle"
	}
	rig, err := BuildRig(opts)
	if err != nil {
		t.Fatalf("BuildRig(%s): %v", kind, err)
	}
	return rig
}

// TestTraceByteIdentical: two same-seed MPL=8 runs with group commit and the
// idle background cleaner produce byte-identical Chrome traces and metrics
// snapshots — the third package invariant of internal/trace, on the most
// concurrent configuration the repo has. kernel-lfs runs ten times the
// transactions on the same disk: most of its commit forces log one summary
// block, so only then does its log wrap.
func TestTraceByteIdentical(t *testing.T) {
	const txns, mpl = 600, 8
	for _, kind := range []string{"user-lfs", "kernel-lfs"} {
		t.Run(kind, func(t *testing.T) {
			n := txns
			if kind == "kernel-lfs" {
				n = 10 * txns
			}
			run := func() (chrome, metrics string) {
				rig := buildTraced(t, kind, txns, 0.5, true)
				res, err := rig.RunMPL(smallCfg(), n, mpl)
				if err != nil {
					t.Fatalf("RunMPL: %v", err)
				}
				if rig.Tracer.EventCount() == 0 {
					t.Fatal("traced run recorded no events")
				}
				if kind == "kernel-lfs" && rig.LFS.Stats().Cleaner.SegmentsCleaned == 0 {
					t.Fatal("the cleaner never ran; the traces do not cover it")
				}
				var cb, mb bytes.Buffer
				if err := rig.Tracer.WriteChrome(&cb); err != nil {
					t.Fatalf("WriteChrome: %v", err)
				}
				snap := rig.Snapshot(MixedResult{Result: res})
				if len(snap.Attribution) == 0 || snap.Metrics == nil {
					t.Fatalf("snapshot missing attribution or metrics: %+v", snap)
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

// TestTraceNeutrality: attaching a tracer must not move a single simulated
// nanosecond — elapsed, TPS, retries, and every disk counter of a traced run
// equal the untraced run, at MPL=1 and MPL=8.
func TestTraceNeutrality(t *testing.T) {
	const txns = 300
	for _, kind := range []string{"user-ffs", "user-lfs", "kernel-lfs"} {
		for _, mpl := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/mpl%d", kind, mpl), func(t *testing.T) {
				run := func(traced bool) (Result, interface{}) {
					// Sized for 300 transactions, a 0.5 disk has too few
					// segments to format.
					rig := buildTraced(t, kind, txns, 0.6, traced)
					res, err := rig.RunMPL(smallCfg(), txns, mpl)
					if err != nil {
						t.Fatalf("RunMPL(traced=%v): %v", traced, err)
					}
					if traced == (rig.Tracer == nil) {
						t.Fatalf("rig tracer presence %v does not match traced=%v", rig.Tracer != nil, traced)
					}
					return res, rig.Dev.Stats()
				}
				plainRes, plainDisk := run(false)
				tracedRes, tracedDisk := run(true)
				if plainRes != tracedRes {
					t.Fatalf("tracing changed the result:\nplain  %+v\ntraced %+v", plainRes, tracedRes)
				}
				if plainDisk != tracedDisk {
					t.Fatalf("tracing changed disk stats:\nplain  %+v\ntraced %+v", plainDisk, tracedDisk)
				}
			})
		}
	}
}
