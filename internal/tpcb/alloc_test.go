package tpcb

import (
	"runtime"
	"testing"
)

// allocBudget is what one rig may allocate on the host: to build (format and
// bulk load) and per transaction of the measured run.
type allocBudget struct {
	buildKB, buildObjects   float64
	perTxnKB, perTxnObjects float64
}

// TestAllocBudget keeps the page-frame recycling from rotting: a page touch
// that goes back to allocating its 4 KB frame — in the loader, btree, a buffer
// pool, a file system or the embedded manager — shows here as kilobytes per
// transaction or megabytes per build. The ceilings are the values measured
// when the recycling landed, times 1.15; the counts repeat to a fraction of a
// percent, because they are properties of the program, not of the host. (At
// the commit before, a transaction here allocated 92–118 KB in 115–158
// objects and a build 9.8–10.2 MB in 47,000–48,000 objects.)
//
// The two user-ffs rows were re-recorded when FFS began staging evicted dirty
// blocks (ufs.Stage) instead of writing each in place: a build grew from
// 2,569 KB in 1,950 objects to 3,680 KB in 2,273. Of the 1.1 MB, 512 KB is the
// stage's own 128 frames and 488 KB the disk queue's copies, whose high-water
// mark rose from 96 to 218 frames because the build's closing Sync sweeps the
// stage and the dirty cache in one pass; the rest is the stage's block maps. A
// transaction allocates a little less: 17.2 KB in 97 objects at MPL 1, was
// 17.9 KB in 102.
//
// The six build-object ceilings were re-recorded when the simulated disk
// began backing the blocks it stores with 64-block slabs instead of one 4 KB
// allocation each: a build now makes 1,951–2,325 objects where it made
// 2,262–2,691. The kilobyte ceilings stand. On user-ffs the WAL's segment 1,
// created at full length since, is zeroed on the device at build; a zero
// block written where nothing was stored costs the disk no memory, so the
// build grew only from 3,680 to 3,851 KB.
//
// The six objects-per-transaction ceilings were re-recorded when the lock
// table began reusing emptied heads, lock chains and its write-set buffer,
// and the LFS began counting a partial segment's cost incrementally: a
// transaction makes 67.9–105.5 objects where it made 96.8–139.9.
func TestAllocBudget(t *testing.T) {
	const txns = 600
	cfg := ScaledConfig(0.01)
	rows := []struct {
		name string
		opts RigOptions
		mpl  int
		max  allocBudget
	}{
		{"serial/user-ffs", RigOptions{Kind: "user-ffs", Config: cfg, ExpectedTxns: txns, GroupCommit: 1}, 1, allocBudget{4232, 2255, 19.8, 78.1}},
		{"serial/user-lfs", RigOptions{Kind: "user-lfs", Config: cfg, ExpectedTxns: txns, GroupCommit: 1}, 1, allocBudget{3296, 2628, 34.8, 92.8}},
		{"serial/kernel-lfs", RigOptions{Kind: "kernel-lfs", Config: cfg, ExpectedTxns: txns, GroupCommit: 1}, 1, allocBudget{3723, 2671, 34.9, 121.3}},
		{"mpl64/user-ffs", RigOptions{Kind: "user-ffs", Config: cfg, ExpectedTxns: txns, GroupCommit: 8}, 64, allocBudget{4222, 2244, 20.9, 97.9}},
		{"mpl64/user-lfs", RigOptions{Kind: "user-lfs", Config: cfg, ExpectedTxns: txns, GroupCommit: 8}, 64, allocBudget{3302, 2628, 27.6, 101.8}},
		{"mpl64/kernel-lfs", RigOptions{Kind: "kernel-lfs", Config: cfg, ExpectedTxns: txns, GroupCommit: 8}, 64, allocBudget{3723, 2674, 26.2, 98.3}},
	}
	measure := func(f func()) (kb, objects float64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / 1024, float64(m1.Mallocs - m0.Mallocs)
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var rig *Rig
			var err error
			var got allocBudget
			got.buildKB, got.buildObjects = measure(func() { rig, err = BuildRig(row.opts) })
			if err != nil {
				t.Fatal(err)
			}
			kb, objects := measure(func() { _, err = rig.RunMPL(cfg, txns, row.mpl) })
			if err != nil {
				t.Fatal(err)
			}
			got.perTxnKB, got.perTxnObjects = kb/txns, objects/txns
			t.Logf("build %.0f KB in %.0f objects; per transaction %.1f KB in %.1f objects",
				got.buildKB, got.buildObjects, got.perTxnKB, got.perTxnObjects)
			check := func(what string, got, max float64) {
				if got > max {
					t.Errorf("%s: %.1f, over the budget of %.1f", what, got, max)
				}
			}
			check("build KB", got.buildKB, row.max.buildKB)
			check("build objects", got.buildObjects, row.max.buildObjects)
			check("KB per transaction", got.perTxnKB, row.max.perTxnKB)
			check("objects per transaction", got.perTxnObjects, row.max.perTxnObjects)
		})
	}
}
