package ffs

import (
	"bytes"
	"testing"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// A flush keeps the staged blocks it wrote in their frames for later fetches.
// A kept frame holds the bytes at its block's address, so whatever gives the
// block other bytes must drop it: a kept block is never read stale. Each case
// gives block 0 of /f, kept, new bytes, evicts the block clean and fetches it
// again.
func TestKeptBlocksAreNeverStale(t *testing.T) {
	const blocks = 16 // twice the cache: the first half is evicted dirty, so parked
	cases := []struct {
		name string
		// change gives block 0 of f new bytes and returns the file, which it
		// may have replaced, and those bytes.
		change func(t *testing.T, fs *FS, f vfs.File) (vfs.File, []byte)
	}{
		{"overwritten whole and written from its buffer", func(t *testing.T, fs *FS, f vfs.File) (vfs.File, []byte) {
			want := pattern(bsz, 2)
			if _, err := f.WriteAt(want, 0); err != nil { // a whole block: no fetch
				t.Fatal(err)
			}
			return f, want
		}},
		{"truncated and regrown", func(t *testing.T, fs *FS, f vfs.File) (vfs.File, []byte) {
			if err := f.Truncate(0); err != nil {
				t.Fatal(err)
			}
			if err := f.Truncate(blocks * bsz); err != nil { // zeroed on the device
				t.Fatal(err)
			}
			return f, make([]byte, bsz)
		}},
		{"removed and recreated", func(t *testing.T, fs *FS, f vfs.File) (vfs.File, []byte) {
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if err := fs.Remove("/f"); err != nil {
				t.Fatal(err)
			}
			g, err := fs.Create("/f")
			if err != nil {
				t.Fatal(err)
			}
			if g.ID() != f.ID() {
				t.Fatalf("the new /f is file %d, want the removed one's number %d", g.ID(), f.ID())
			}
			if err := g.Truncate(blocks * bsz); err != nil {
				t.Fatal(err)
			}
			return g, make([]byte, bsz)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Three inodes — the root, /other and /f — so that a recreated
			// /f takes the number the removed one had.
			clk := sim.NewClock()
			fs, err := Format(disk.New(sim.SmallModel(), clk), clk, Options{CacheBlocks: 8, MaxInodes: 3})
			if err != nil {
				t.Fatal(err)
			}
			writeFile(t, fs, "/other", pattern(blocks*bsz, 9))
			f, err := fs.Create("/f")
			if err != nil {
				t.Fatal(err)
			}
			if _, err = f.WriteAt(pattern(blocks*bsz, 1), 0); err != nil {
				t.Fatal(err)
			}
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
			block0 := buffer.BlockID{File: f.ID(), Block: 0}
			if !fs.stage.ReadKept(block0, make([]byte, bsz)) {
				t.Fatal("block 0 was evicted dirty and flushed, so it must be kept")
			}

			f, want := tc.change(t, fs, f)
			defer f.Close()
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			readFile(t, fs, "/other") // evicts block 0, clean
			block0.File = f.ID()
			if fs.pool.Lookup(block0) != nil {
				t.Fatal("block 0 must have left the cache")
			}
			got := make([]byte, bsz)
			if _, err := f.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("block 0 reads % x…, want % x…", got[:8], want[:8])
			}
		})
	}
}
