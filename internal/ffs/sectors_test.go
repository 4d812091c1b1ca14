package ffs

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/vfs"
)

// An in-place write of a block moves only the sectors from the first through
// the last byte changed since the block was last read from, or written to, its
// address (the hull of buffer.Changed) — none when no byte changed — and the whole block
// whenever that address may hold other bytes than the buffer. Each case
// crashes right after the Sync.
func TestSyncWritesTheChangedSectors(t *testing.T) {
	fs, dev, clk := newStagingFS(t)
	f, want := durableFile(t, fs, "/f", 2, 1)
	g, _ := durableFile(t, fs, "/g", 10, 2)
	write := func(p []byte, off int) {
		t.Helper()
		copy(want[off:], p)
		if _, err := f.WriteAt(p, int64(off)); err != nil {
			t.Fatal(err)
		}
	}
	// syncMoves syncs /f and checks the writes it made and how many were
	// short, with how many sectors.
	syncMoves := func(name string, writes, short, sectors int64) {
		t.Helper()
		st, ds := fs.Stats(), dev.Stats()
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		st2, ds2 := fs.Stats(), dev.Stats()
		if w, s, n := ds2.Writes-ds.Writes, st2.ShortWrites-st.ShortWrites, st2.ShortWriteSectors-st.ShortWriteSectors; w != writes || s != short || n != sectors {
			t.Fatalf("%s: Sync made %d writes, %d short of %d sectors; want %d, %d of %d", name, w, s, n, writes, short, sectors)
		}
		remountHolds(t, dev, clk, "/f", want)
	}

	write([]byte("ten bytes!"), bsz+1000)
	syncMoves("ten bytes at 1000", 1, 1, 1)

	write([]byte("ten bytes!"), bsz+500) // in sector 0; the next in sector 4
	write([]byte("ten bytes!"), bsz+2100)
	syncMoves("ten bytes at 500 and at 2100", 1, 1, 5)

	write(want[bsz+3000:bsz+3010], bsz+3000) // dirty, but no byte changes
	syncMoves("an unchanged rewrite", 0, 0, 0)

	// A whole-block overwrite the pool does not fetch: the zeroed buffer's
	// bytes are not the block's, so zeros at its end are a change too.
	if err := fs.pool.Invalidate(buffer.BlockID{File: vfs.FileID(f.ID()), Block: 1}); err != nil {
		t.Fatal(err)
	}
	p := append([]byte(nil), want[bsz:2*bsz]...)
	clear(p[bsz-1000:])
	write(p, bsz)
	syncMoves("an unfetched whole-block overwrite", 1, 0, 0)

	// A block read back from its parked copy: the address lacks the parked
	// bytes, so a later small change still writes the whole block.
	write([]byte{0xee}, 4000)
	buf := make([]byte, bsz)
	for blk := 0; blk < 10; blk++ { // evicts /f's dirty block 0 into the stage
		if _, err := g.ReadAt(buf, int64(blk*bsz)); err != nil {
			t.Fatal(err)
		}
	}
	if _, parked := fs.stage.Lookup(buffer.BlockID{File: vfs.FileID(f.ID()), Block: 0}); !parked {
		t.Fatal("reading ten blocks through an eight-block cache left /f's dirty block 0 unparked")
	}
	write([]byte{0xdd}, 10)
	syncMoves("a small change to a block read back from the stage", 1, 0, 0)
}

// A directory block is written whole, however little of it changed: a padded
// directory must reach the device in one piece, and only a whole-block write
// is never torn.
func TestDirectoryBlocksAreWrittenWhole(t *testing.T) {
	fs, _, _ := newStagingFS(t)
	durableFile(t, fs, "/f", 1, 1)
	before := fs.Stats().ShortWrites
	if _, err := fs.Create("/g"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := fs.Stats().ShortWrites - before; got != 0 {
		t.Fatalf("adding a directory entry made %d short writes, want 0", got)
	}
}

// A shrinking Truncate zeroes the tail of the new last block in the cache; a
// later Sync moves that whole block, so that a crash after the file grows
// back over the tail reads zeros there, not the bytes the truncate cut.
func TestTruncatedTailReachesTheDevice(t *testing.T) {
	fs, dev, clk := newStagingFS(t)
	f, want := durableFile(t, fs, "/f", 1, 1)
	clear(want[100:])
	// Read from the device afresh, the block has changed nothing yet.
	if err := fs.pool.Invalidate(buffer.BlockID{File: vfs.FileID(f.ID()), Block: 0}); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int64{100, bsz} {
		if err := f.Truncate(size); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	remountHolds(t, dev, clk, "/f", want)
}

// A block a growing Truncate zeroed on the device, and that nothing has
// written since, holds the zeros an unfetched buffer starts with: the first
// whole-block write into it — a log force starting a preallocated block —
// moves only the sectors its bytes fill. With the block before it, which the
// force appends to in the cache, it makes one write of the sectors between
// the two blocks' changes. The inode forgets a block once it is written, and
// a shrinking Truncate forgets the blocks it cuts.
func TestFreshZeroedBlockMovesOnlyItsSectors(t *testing.T) {
	fs, dev, clk := newStagingFS(t)
	f, err := fs.Create("/log")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Truncate(4 * bsz); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 4*bsz)
	// force writes blocks from..to of want whole, as the log does, and syncs.
	force := func(name string, from, to int, writes, short, sectors int64) {
		t.Helper()
		st, ds := fs.Stats(), dev.Stats()
		if _, err := f.WriteAt(want[from*bsz:(to+1)*bsz], int64(from*bsz)); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		st2, ds2 := fs.Stats(), dev.Stats()
		if w, s, n := ds2.Writes-ds.Writes, st2.ShortWrites-st.ShortWrites, st2.ShortWriteSectors-st.ShortWriteSectors; w != writes || s != short || n != sectors {
			t.Fatalf("%s: Sync made %d writes, %d short of %d sectors; want %d, %d of %d", name, w, s, n, writes, short, sectors)
		}
		remountHolds(t, dev, clk, "/log", want)
	}
	copy(want, pattern(900, 1))
	force("a first force into block 0", 0, 0, 1, 1, 2)
	copy(want[900:], pattern(bsz-900+300, 2))
	force("a force from block 0 into block 1", 0, 1, 1, 1, 7+1)
	copy(want[bsz+300:], pattern(100, 3))
	if err := fs.pool.Invalidate(buffer.BlockID{File: vfs.FileID(f.ID()), Block: 1}); err != nil {
		t.Fatal(err)
	}
	force("a written block, uncached", 1, 1, 1, 0, 0)

	if err := f.Truncate(2 * bsz); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	want = want[:2*bsz]
	if err := f.Truncate(3 * bsz); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	want = append(want, make([]byte, bsz)...)
	copy(want[2*bsz:], pattern(10, 4))
	force("a block zeroed by a second growing Truncate", 2, 2, 1, 1, 1)
}
