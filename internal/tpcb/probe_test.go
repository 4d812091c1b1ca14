package tpcb

import (
	"testing"
)

func TestProbeFigure4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("probe")
	}
	cfg := ScaledConfig(0.05) // 50k accounts
	const n = 5000
	for _, kind := range []string{"user-ffs", "user-lfs", "kernel-lfs"} {
		rig, err := BuildRig(RigOptions{Kind: kind, Config: cfg, ExpectedTxns: n})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rig.RunMPL(cfg, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s  disk=%v", res, rig.Dev.Stats())
		if rig.LFS != nil {
			t.Logf("   lfs stats: %+v", rig.LFS.Stats())
		}
	}
}
