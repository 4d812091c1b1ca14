package ffs

import (
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Write-behind — the syncer and the sweep of a full stage — runs on the
// device's background lane; everything a caller waits for stays foreground.

// idleWindow is longer than any sweep of a full stage on the small model.
const idleWindow = 10 * time.Second

// newQuietFS is newStagingFS with the syncer out of the way, so an idle window
// cannot start a pass.
func newQuietFS(t *testing.T) (*FS, *disk.Device, *sim.Clock) {
	t.Helper()
	clk := sim.NewClock()
	dev := disk.New(sim.SmallModel(), clk)
	fs, err := Format(dev, clk, Options{CacheBlocks: 8, SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return fs, dev, clk
}

// stageUntilFull overwrites random blocks of a durable 300-block file until
// the stage is full, and returns the file and the offset of the last block
// written, which the cache still holds.
func stageUntilFull(t *testing.T, fs *FS) (vfs.File, int64) {
	t.Helper()
	const blocks = 300
	f, want := durableFile(t, fs, "/f", blocks, 1)
	order := sim.NewRNG(3).Perm(blocks)
	last := 0
	for i := 0; fs.stage.Len() < stageBlocks; i++ {
		last = order[i]
		overwrite(t, f, want, 70, last)
	}
	return f, int64(last * bsz)
}

// A sweep after an idle window at least as long as its service time costs the
// access whose tick starts it no device time: the window absorbs all of it.
func TestStagedFlushRunsInIdleTime(t *testing.T) {
	fs, dev, clk := newQuietFS(t)
	f, cached := stageUntilFull(t, fs)
	clk.Advance(idleWindow)
	st0, wb0, sweeps0 := dev.Stats(), fs.Stats().WriteBehind, fs.Stats().StagedFlushes
	before := clk.Now()
	if _, err := f.ReadAt(make([]byte, 1), cached); err != nil {
		t.Fatal(err)
	}
	if got := fs.Stats().StagedFlushes - sweeps0; got != 1 {
		t.Fatalf("%d sweeps, want the one a full stage starts", got)
	}
	st, wb := dev.Stats(), fs.Stats().WriteBehind
	busy := wb.Busy - wb0.Busy
	if busy == 0 || busy != st.BusyTime-st0.BusyTime || busy > idleWindow {
		t.Fatalf("write-behind busy %v (device busy %v): want the whole sweep, under the %v window", busy, st.BusyTime-st0.BusyTime, idleWindow)
	}
	if wb.Stall != wb0.Stall || wb.Overlap-wb0.Overlap != busy {
		t.Fatalf("write-behind overlap %v, stall %v: the idle window should absorb all %v", wb.Overlap-wb0.Overlap, wb.Stall-wb0.Stall, busy)
	}
	if d := clk.Now() - before; d != 0 {
		t.Fatalf("the read that started the sweep took %v, want 0", d)
	}
}

// File.Sync and FS.Sync are waited for: they write the staged blocks on the
// foreground lane and charge their full service time even after a long idle
// window.
func TestSyncIsChargedInFull(t *testing.T) {
	for _, tc := range []struct {
		name string
		sync func(fs *FS, f vfs.File) error
	}{
		{"File.Sync", func(_ *FS, f vfs.File) error { return f.Sync() }},
		{"FS.Sync", func(fs *FS, _ vfs.File) error { return fs.Sync() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, dev, clk := newQuietFS(t)
			f, want := durableFile(t, fs, "/f", 32, 1)
			overwrite(t, f, want, 50, seq(32)...)
			if fs.stage.Len() == 0 {
				t.Fatal("nothing is staged: the test exercises nothing")
			}
			clk.Advance(idleWindow)
			st0, wb0 := dev.Stats(), fs.Stats().WriteBehind
			before := clk.Now()
			if err := tc.sync(fs, f); err != nil {
				t.Fatal(err)
			}
			st, wb := dev.Stats(), fs.Stats().WriteBehind
			if wb != wb0 {
				t.Fatalf("%s put %v on the background lane", tc.name, wb.Busy-wb0.Busy)
			}
			if busy, d := st.BusyTime-st0.BusyTime, clk.Now()-before; busy == 0 || d != busy {
				t.Fatalf("%s took %v for %v of device time, want all of it", tc.name, d, busy)
			}
		})
	}
}
