package tpcb

import (
	"errors"
	"testing"

	"repro/internal/lfs"
)

// TestNearlyFullDiskCleans runs TPC-B on disks too small for the run: the
// cleaner's passes dig into the last free segments, and when one runs out of
// them advanceSegmentLocked's fallback frees the victims the pass has already
// emptied. The run completes or stops with ErrNoSpace — never with a cleaning
// pass that fails its own invariant — and the file system's free count still
// matches its segment table.
func TestNearlyFullDiskCleans(t *testing.T) {
	for _, c := range []struct {
		kind  string
		scale float64
	}{{"user-lfs", 0.25}, {"kernel-lfs", 0.2}} {
		t.Run(c.kind, func(t *testing.T) {
			cfg := ScaledConfig(0.05)
			const txns = 10000
			rig, err := BuildRig(RigOptions{Kind: c.kind, Config: cfg, ExpectedTxns: txns, DiskScale: c.scale})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rig.RunMPL(cfg, txns, 1); err != nil && !errors.Is(err, lfs.ErrNoSpace) {
				t.Fatal(err)
			}
			rep, err := rig.LFS.Fsck()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range rep.Problems {
				t.Error(p)
			}
		})
	}
}
