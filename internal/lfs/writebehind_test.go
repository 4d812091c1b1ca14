package lfs

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Write-behind — the partial segment a full stage forces out, the blocks a
// whole-page commit force leaves behind, the patched blocks a checkpoint logs
// — runs on the device's background lane; everything a caller waits for, and
// every cleaning pass, stays foreground.

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
	if busy == 0 || busy != st.BgTime-st0.BgTime || busy != st.BusyTime-st0.BusyTime || busy > idleWindow {
		t.Fatalf("write-behind busy %v (device background %v, all %v): want the whole flush, under the %v window", busy, st.BgTime-st0.BgTime, st.BusyTime-st0.BusyTime, idleWindow)
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
			st := dev.Stats()
			if st.BgTime != st0.BgTime || fs.Stats().WriteBehind != wb0 {
				t.Fatalf("%s put %v on the background lane", tc.name, st.BgTime-st0.BgTime)
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
		if wb == 0 || wb != st.BgTime-st0.BgTime || wb+cleaned != st.BusyTime-st0.BusyTime {
			t.Fatalf("write-behind %v + cleaning %v != device busy %v (background %v): the pass must stay off the background lane", wb, cleaned, st.BusyTime-st0.BusyTime, st.BgTime-st0.BgTime)
		}
		if d := clk.Now() - before; d != cleaned {
			t.Fatalf("the read that started the flush took %v, want the cleaning pass's %v", d, cleaned)
		}
		return
	}
	t.Fatal("no full-stage flush cleaned: the test exercises nothing")
}

// laneBlocks counts, from now on, the blocks fs's device writes on each lane.
func laneBlocks(fs *FS) map[disk.Lane]int64 {
	n := map[disk.Lane]int64{}
	fs.dev.SetFault(func(op string, _ int64) error {
		if op == "write" {
			n[fs.dev.Lane()]++
		}
		return nil
	})
	return n
}

// dragScript lays out a transaction-protected file of 20 blocks, patches 19
// of them by summary-only batch commits, then commits a batch that cannot be
// one: block 19 written whole, and block 0, which a running transaction has
// written since it pre-committed, from its committed image. That force logs
// the two pages in the foreground and the 18 other patched blocks behind it.
// Block 0 keeps the running writer's bytes as its delta, so the writer's own
// commit is summary-only again, as is one more round over the blocks written
// behind. Pages are held during their force, as the embedded manager holds
// them. The lane counts are checked unless the force checkpointed.
func dragScript(fs *FS, after func(int, fileImage)) error {
	bs := fs.BlockSize()
	const blocks = 20
	f, err := fs.Create("/f")
	if err != nil {
		return err
	}
	defer f.Close()
	ino := Ino(f.ID())
	im := fileImage{version: map[int64]int{}, blocks: blocks}
	for lbn := int64(0); lbn < blocks; lbn++ {
		if _, err := f.WriteAt(stamped(bs, lbn, 1), lbn*int64(bs)); err != nil {
			return err
		}
		im.version[lbn] = 1
	}
	if err := fs.SetTxnProtected("/f", true); err != nil {
		return err
	}
	if err := fs.Sync(); err != nil {
		return err
	}
	step, cps := 0, fs.Stats().Checkpoints
	after(step, im.clone())
	step++
	edit := func(lbn int64, off int, p string) error {
		if _, err := f.WriteAt([]byte(p), lbn*int64(bs)+int64(off)); err != nil {
			return err
		}
		im = im.edit(bs, lbn, off, []byte(p))
		return nil
	}
	lanes := laneBlocks(fs)
	// commit forces pages and checks what went to each lane: fg blocks in
	// the foreground, bg behind it, and summaryOnly whether the force was.
	commit := func(pages []CommitPage, summaryOnly bool, fg, bg int64) error {
		var held []*buffer.Buf
		for _, cp := range pages {
			if b := fs.pool.Lookup(cp.ID); b != nil && !b.Held() {
				fs.pool.SetHold(b, true)
				held = append(held, b)
			}
		}
		before := fs.Stats()
		clear(lanes)
		if err := fs.FlushCommit(pages); err != nil {
			return err
		}
		for _, b := range held {
			fs.pool.SetHold(b, false)
		}
		st := fs.Stats()
		if got := st.SummaryOnlyForces > before.SummaryOnlyForces; got != summaryOnly {
			return fmt.Errorf("force %d: summary-only %v, want %v", step, got, summaryOnly)
		}
		if st.Checkpoints == before.Checkpoints && (lanes[disk.Foreground] != fg || lanes[disk.Background] != bg) {
			return fmt.Errorf("force %d: %d blocks in the foreground and %d behind, want %d and %d",
				step, lanes[disk.Foreground], lanes[disk.Background], fg, bg)
		}
		after(step, im.clone())
		step++
		return nil
	}
	for round := int64(0); round < 4; round++ {
		var pages []CommitPage
		for lbn := round; lbn < blocks-1; lbn += 4 {
			if err := edit(lbn, int(100+8*round), fmt.Sprintf("round %d", round)); err != nil {
				return err
			}
			pages = append(pages, CommitPage{ID: blockIDOf(ino, lbn)})
		}
		if err := commit(pages, true, 1, 0); err != nil {
			return err
		}
	}
	patched := 0
	for lbn := int64(1); lbn < blocks-1; lbn++ {
		if fs.Patched(blockIDOf(ino, lbn)) {
			patched++
		}
	}
	if fs.Stats().Checkpoints == cps && patched != blocks-2 {
		return fmt.Errorf("%d of blocks 1-18 are patched: the batch has less to leave behind", patched)
	}
	id0 := blockIDOf(ino, 0)
	if _, err := f.WriteAt(stamped(bs, blocks-1, 2), (blocks-1)*int64(bs)); err != nil {
		return err
	}
	im.version[blocks-1] = 2
	if err := edit(0, 300, "committed"); err != nil {
		return err
	}
	b0 := fs.pool.Lookup(id0)
	fs.pool.SetHold(b0, true) // the running writer's, from here to its commit
	img := bytes.Clone(b0.Data)
	if _, err := f.WriteAt([]byte("running"), 600); err != nil {
		return err
	}
	// The summary and the two pages; behind them, a summary and the file's
	// other unheld dirty blocks: the patched ones, and any a checkpoint
	// logged from their durable image while held.
	behind := int64(len(fs.pool.DirtyFile(vfs.FileID(ino))) - 1)
	if behind > 0 {
		behind++
	}
	if err := commit([]CommitPage{{ID: id0, Image: img}, {ID: blockIDOf(ino, blocks-1)}}, false, 3, behind); err != nil {
		return err
	}
	if _, err := f.WriteAt([]byte("and more"), 700); err != nil {
		return err
	}
	if err := edit(0, 600, "running"); err != nil {
		return err
	}
	if err := edit(0, 700, "and more"); err != nil {
		return err
	}
	if err := commit([]CommitPage{{ID: id0}}, true, 1, 0); err != nil {
		return err
	}
	fs.pool.SetHold(b0, false)
	var pages []CommitPage
	for lbn := int64(1); lbn < blocks; lbn += 3 {
		if err := edit(lbn, 900, "after write-behind"); err != nil {
			return err
		}
		pages = append(pages, CommitPage{ID: blockIDOf(ino, lbn)})
	}
	return commit(pages, true, 1, 0)
}

// TestWholePageForceLogsOnlyItsBatch: a commit force that cannot be
// summary-only logs its batch's pages in the foreground and leaves its file's
// other dirty blocks, whose committed bytes are durable in patches, to the
// background lane; a crash at any write of the sequence, the write-behind
// ones included, loses no committed byte. With a checkpoint every 4 partials
// the checkpoints' patched blocks go behind too.
func TestWholePageForceLogsOnlyItsBatch(t *testing.T) {
	for _, every := range []int{0, 4} {
		fs := crashAtEveryWrite(t, Options{CheckpointEvery: every}, dragScript)
		if st := fs.Stats(); st.FullForces != 1 || st.WriteBehind.Busy == 0 {
			t.Fatalf("checkpoint-every %d: %d whole-page forces, write-behind busy %v; want one, behind", every, st.FullForces, st.WriteBehind.Busy)
		}
	}
}
