package lfs

import (
	"bytes"
	"testing"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/frame"
	"repro/internal/sim"
)

// A dirty block evicted from the cache is parked in one of the stage's frames
// until the next partial segment carries it, and kept there once the write has
// returned, until a later park needs the frame: bytes held past the flush
// still read the block, the park that reclaims the frame refills it with its
// own block, and once that block's file goes the frame reads poison. The
// segment writer's scratch keeps taking the same frames.
func TestParkedBlocksAndSegmentScratchAreRecycled(t *testing.T) {
	clk := sim.NewClock()
	dev := disk.New(sim.SmallModel(), clk)
	fs, err := Format(dev, clk, Options{CacheBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	bs := fs.BlockSize()
	f, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 40 // five times the cache: most writes evict a dirty block
	want := make([]byte, blocks*bs)
	round := func(seed byte) (parked []byte) {
		for i := 0; i < blocks; i++ {
			data := bytes.Repeat([]byte{seed + byte(i)}, bs)
			copy(want[i*bs:], data)
			if _, err := f.WriteAt(data, int64(i*bs)); err != nil {
				t.Fatal(err)
			}
		}
		parked, _ = fs.stage.Lookup(buffer.BlockID{File: f.ID(), Block: 0})
		if parked == nil || parked[0] != seed {
			t.Fatalf("block 0 must be parked with its bytes after %d writes through an 8-block cache", blocks)
		}
		if err := fs.Flush(); err != nil {
			t.Fatal(err)
		}
		return parked
	}
	block0 := buffer.BlockID{File: f.ID(), Block: 0}
	scratch := make([]byte, bs)
	parked := round(1)
	if !bytes.Equal(parked, bytes.Repeat([]byte{1}, bs)) || !fs.stage.ReadKept(block0, scratch) {
		t.Fatalf("block 0 must stay kept in its frame past the flush, got % x", parked[:8])
	}
	highWater := fs.frames.Free()
	for seed := byte(2); seed < 12; seed++ {
		parked = round(seed)
	}
	if n := fs.stage.Len(); n != 0 {
		t.Fatalf("%d blocks still parked after a flush", n)
	}
	// Evictions of a second file's blocks need frames: the oldest kept ones,
	// block 0 among the first, go to them.
	g, err := fs.Create("/g")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; fs.stage.ReadKept(block0, scratch); i++ {
		if i == int(fs.sb.SegmentBlocks) {
			t.Fatal("a stage's worth of new parked blocks did not reclaim block 0's kept frame")
		}
		if _, err := g.WriteAt(bytes.Repeat([]byte{0xA0}, bs), int64(i*bs)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(parked, bytes.Repeat([]byte{0xA0}, bs)) {
		t.Fatalf("block 0's reclaimed frame must hold the block parked in it, got % x", parked[:8])
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/g"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parked, bytes.Repeat([]byte{frame.Poison}, bs)) {
		t.Fatalf("a staged block's frame held past its file's removal must read poison, got % x", parked[:8])
	}
	if got := fs.frames.Free(); got != highWater {
		t.Fatalf("ten more rounds moved the frame list from %d to %d frames: it must stay at its high-water mark", highWater, got)
	}
	got := make([]byte, len(want))
	if _, err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the file must read back what was written through the recycled frames: %v", err)
	}
}
