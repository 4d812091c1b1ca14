package lfs

import (
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Write-behind — the partial segment a full stage forces out, the patched
// blocks a checkpoint logs — runs on the device's background lane; everything
// a caller waits for, and every cleaning pass, stays foreground.

// idleWindow is longer than any flush of a full stage on the small model.
const idleWindow = 10 * time.Second

// fillStage writes distinct blocks of f, from block 0 up, until the stage
// is full, and returns the offset of the last block written, which the cache
// still holds.
func fillStage(t *testing.T, fs *FS, f vfs.File, seed byte) int64 {
	t.Helper()
	buf := make([]byte, fs.BlockSize())
	var off int64
	for blk := 0; fs.stage.Len() < int(fs.sb.SegmentBlocks); blk++ {
		off = int64(blk * fs.BlockSize())
		buf[0] = seed + byte(blk)
		if _, err := f.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
	return off
}

// A full-stage flush after an idle window at least as long as its service time
// costs the access whose tick starts it no device time.
func TestStageFlushRunsInIdleTime(t *testing.T) {
	clk := sim.NewClock()
	dev := disk.New(sim.SmallModel(), clk)
	fs, err := Format(dev, clk, Options{CacheBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cached := fillStage(t, fs, f, 1)
	clk.Advance(idleWindow)
	st0, fs0 := dev.Stats(), fs.Stats()
	before := clk.Now()
	if _, err := f.ReadAt(make([]byte, 1), cached); err != nil {
		t.Fatal(err)
	}
	st, fs1 := dev.Stats(), fs.Stats()
	if fs1.PartialSegments == fs0.PartialSegments || fs.stage.Len() != 0 {
		t.Fatalf("the tick wrote %d partial segments and left %d blocks staged, want the stage flushed", fs1.PartialSegments-fs0.PartialSegments, fs.stage.Len())
	}
	wb0, wb := fs0.WriteBehind, fs1.WriteBehind
	busy := wb.Busy - wb0.Busy
	if busy == 0 || busy != st.BusyTime-st0.BusyTime || busy > idleWindow {
		t.Fatalf("write-behind busy %v (device busy %v): want the whole flush, under the %v window", busy, st.BusyTime-st0.BusyTime, idleWindow)
	}
	if wb.Stall != wb0.Stall || wb.Overlap-wb0.Overlap != busy {
		t.Fatalf("write-behind overlap %v, stall %v: the idle window should absorb all %v", wb.Overlap-wb0.Overlap, wb.Stall-wb0.Stall, busy)
	}
	if d := clk.Now() - before; d != 0 {
		t.Fatalf("the read that started the flush took %v, want 0", d)
	}
}

// File.Sync, FS.Sync and a commit force are waited for: they go out on the
// foreground lane and charge their full service time even after a long idle
// window.
func TestSyncIsChargedInFull(t *testing.T) {
	for _, tc := range []struct {
		name string
		sync func(fs *FS, f vfs.File) error
	}{
		{"File.Sync", func(_ *FS, f vfs.File) error { return f.Sync() }},
		{"FS.Sync", func(fs *FS, _ vfs.File) error { return fs.Sync() }},
		{"FlushFile", func(fs *FS, f vfs.File) error { return fs.FlushFile(f.ID()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := sim.NewClock()
			dev := disk.New(sim.SmallModel(), clk)
			fs, err := Format(dev, clk, Options{CacheBlocks: 8})
			if err != nil {
				t.Fatal(err)
			}
			f, err := fs.Create("/f")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt(pattern(32*fs.BlockSize(), 1), 0); err != nil {
				t.Fatal(err)
			}
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

// A synchronous cleaning pass that a full-stage flush needs is charged in
// full: where cleaning runs is the sync|idle choice, not the flush's lane.
func TestCleaningInsideBackgroundFlushIsForeground(t *testing.T) {
	fs, dev, clk := tinyFS(t)
	f, err := fs.Create("/wheel")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Blocks past the ones fillStage rewrites stay live in old segments, so
	// the log fills with victims the cleaner has to copy.
	if _, err := f.WriteAt(pattern(256*fs.BlockSize(), 1), 0); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		cached := fillStage(t, fs, f, byte(round))
		clk.Advance(idleWindow)
		st0, fs0 := dev.Stats(), fs.Stats()
		before := clk.Now()
		if _, err := f.ReadAt(make([]byte, 1), cached); err != nil {
			t.Fatal(err)
		}
		st, fs1 := dev.Stats(), fs.Stats()
		cleaned := fs1.Cleaner.BusyTime - fs0.Cleaner.BusyTime
		if cleaned == 0 {
			continue
		}
		wb := fs1.WriteBehind.Busy - fs0.WriteBehind.Busy
		if wb == 0 || wb+cleaned != st.BusyTime-st0.BusyTime {
			t.Fatalf("write-behind %v + cleaning %v != device busy %v: the pass must stay off the background lane", wb, cleaned, st.BusyTime-st0.BusyTime)
		}
		if d := clk.Now() - before; d != cleaned {
			t.Fatalf("the read that started the flush took %v, want the cleaning pass's %v", d, cleaned)
		}
		return
	}
	t.Fatal("no full-stage flush cleaned: the test exercises nothing")
}

// writeRuns records, from now on, the blocks of each write operation fs's
// device issues: a partial segment is one.
func writeRuns(fs *FS) *[]int64 {
	var runs []int64
	last := int64(-1)
	fs.dev.SetFault(func(op string, _ int64) error {
		if op != "write" {
			return nil
		}
		// The device counts an operation after consulting the hook on each
		// of its blocks.
		if w := fs.dev.WriteOps(); w != last {
			last = w
			runs = append(runs, 0)
		}
		runs[len(runs)-1]++
		return nil
	})
	return &runs
}
