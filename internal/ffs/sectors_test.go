package ffs

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/vfs"
)

// An in-place write of a block moves only the sectors through the last byte
// changed since the block was last read from, or written to, its address
// (noteWrite), and the whole block whenever that address may hold other bytes
// than the buffer past them. Each case crashes right after the Sync.
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
	syncMoves("ten bytes at 1000", 1, 1, 2)

	write(want[bsz+3000:bsz+3010], bsz+3000) // dirty, but no byte changes
	syncMoves("an unchanged rewrite", 1, 1, 1)

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
