package ffs

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// The write-behind stage's contract, one test per rule, on a cache of eight
// blocks: nearly every write of a file larger than that evicts a dirty block.

const bsz = 4096

// newStagingFS formats a file system whose cache evicts after eight blocks.
func newStagingFS(t *testing.T) (*FS, *disk.Device, *sim.Clock) {
	t.Helper()
	clk := sim.NewClock()
	dev := disk.New(sim.SmallModel(), clk)
	fs, err := Format(dev, clk, Options{CacheBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	return fs, dev, clk
}

// durableFile writes blocks blocks of seed's pattern to path, makes them
// durable and returns the file open, with the bytes the test expects it to
// hold.
func durableFile(t *testing.T, fs *FS, path string, blocks int, seed byte) (vfs.File, []byte) {
	t.Helper()
	want := pattern(blocks*bsz, seed)
	writeFile(t, fs, path, want)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, want
}

// overwrite rewrites whole blocks of f, in the order given, with seed's
// pattern, and records them in want.
func overwrite(t *testing.T, f vfs.File, want []byte, seed byte, blocks ...int) {
	t.Helper()
	for _, blk := range blocks {
		fresh := pattern(bsz, seed+byte(blk))
		copy(want[blk*bsz:], fresh)
		if _, err := f.WriteAt(fresh, int64(blk*bsz)); err != nil {
			t.Fatal(err)
		}
	}
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// remountHolds mounts what the device holds — a crash: no Sync — and fails
// the test unless path reads back as want.
func remountHolds(t *testing.T, dev *disk.Device, clk *sim.Clock, path string, want []byte) {
	t.Helper()
	fs2, err := Mount(dev, clk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, fs2, path); !bytes.Equal(got, want) {
		t.Fatalf("after a crash %s differs from what was written and made durable (first difference at byte %d)", path, firstDiff(got, want))
	}
}

// An eviction costs no device write, and a re-read of the evicted block is
// served from the stage.
func TestEvictionIsStagedNotWritten(t *testing.T) {
	fs, dev, _ := newStagingFS(t)
	f, want := durableFile(t, fs, "/f", 24, 1)
	st0, staged0 := dev.Stats(), fs.Stats().BlocksStaged
	overwrite(t, f, want, 50, seq(24)...)
	if got := dev.Stats().Writes - st0.Writes; got != 0 {
		t.Fatalf("24 overwrites through an 8-block cache made %d device writes, want 0", got)
	}
	if got := fs.Stats().BlocksStaged - staged0; got != 16 || fs.stage.Len() != 16 {
		t.Fatalf("%d blocks staged, %d parked; want the 16 evicted", got, fs.stage.Len())
	}
	if _, ok := fs.stage.Lookup(buffer.BlockID{File: f.ID(), Block: 0}); !ok {
		t.Fatal("block 0, the first evicted, is not parked")
	}
	got := make([]byte, bsz)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want[:bsz]) {
		t.Fatal("re-read of a staged block returned stale bytes")
	}
	if st := dev.Stats(); st.Reads != st0.Reads || st.Writes != st0.Writes {
		t.Fatalf("re-reading a staged block made %d reads and %d writes, want none", st.Reads-st0.Reads, st.Writes-st0.Writes)
	}
}

// A full stage is written in one C-SCAN sweep: the device sees its addresses
// rise from the arm's position and wrap to the lowest once.
func TestStagedFlushIsOneSortedSweep(t *testing.T) {
	fs, dev, clk := newStagingFS(t)
	const blocks = 300
	f, want := durableFile(t, fs, "/f", blocks, 1)
	in, err := fs.LookupLocked("/f")
	if err != nil {
		t.Fatal(err)
	}
	order := sim.NewRNG(3).Perm(blocks)
	i := 0
	for fs.stage.Len() < stageBlocks {
		overwrite(t, f, want, 70, order[i])
		i++
	}
	sweeps0 := fs.Stats().StagedFlushes
	// Park the arm in the middle of the file, so the sweep has to wrap.
	if err := dev.Read(in.mapBlock(blocks/2), make([]byte, bsz)); err != nil {
		t.Fatal(err)
	}
	arm := dev.ArmPosition()
	var addrs []int64
	dev.SetFault(func(op string, block int64) error {
		if op == "write" {
			addrs = append(addrs, block)
		}
		return nil
	})
	// The tick before a read of the block just written, a cache hit, sweeps.
	if _, err := f.ReadAt(make([]byte, 1), int64(order[i-1]*bsz)); err != nil {
		t.Fatal(err)
	}
	dev.SetFault(nil)
	if sweeps := fs.Stats().StagedFlushes - sweeps0; sweeps != 1 || fs.stage.Len() != 0 {
		t.Fatalf("%d staged flushes, %d blocks still parked; want one sweep that empties the stage", sweeps, fs.stage.Len())
	}
	if len(addrs) != stageBlocks {
		t.Fatalf("the sweep wrote %d blocks, want the %d staged", len(addrs), stageBlocks)
	}
	wraps := 0
	for j := 1; j < len(addrs); j++ {
		if addrs[j] <= addrs[j-1] {
			wraps++
		}
	}
	if wraps != 1 || addrs[0] < arm || addrs[len(addrs)-1] >= arm {
		t.Fatalf("sweep from arm %d is not one C-SCAN pass (%d descents): %v", arm, wraps, addrs)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	remountHolds(t, dev, clk, "/f", want)
}

// File.Sync, FS.Sync and a syncer pass each write the staged blocks they cover
// before they return: a crash right after finds the bytes. A block re-read from
// the stage and written again supersedes its staged copy.
func TestSyncWritesStagedBlocks(t *testing.T) {
	for _, tc := range []struct {
		name  string
		do    func(fs *FS, clk *sim.Clock, f vfs.File) error
		other int // /g's blocks still staged afterwards
	}{
		{"File.Sync", func(_ *FS, _ *sim.Clock, f vfs.File) error { return f.Sync() }, 16},
		{"FS.Sync", func(fs *FS, _ *sim.Clock, _ vfs.File) error { return fs.Sync() }, 0},
		{"syncer", func(_ *FS, clk *sim.Clock, f vfs.File) error {
			clk.Advance(31 * time.Second)
			_, err := f.ReadAt(make([]byte, 1), 0) // any access ticks the syncer
			return err
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, dev, clk := newStagingFS(t)
			f, want := durableFile(t, fs, "/f", 32, 1)
			g, _ := durableFile(t, fs, "/g", 24, 2)
			overwrite(t, f, want, 50, seq(32)...)
			// Round two re-reads half of /f from the stage and dirties it again.
			for blk := 0; blk < 32; blk += 2 {
				b := make([]byte, bsz)
				if _, err := f.ReadAt(b, int64(blk*bsz)); err != nil || !bytes.Equal(b, want[blk*bsz:(blk+1)*bsz]) {
					t.Fatalf("block %d reads back wrong before the sync (%v)", blk, err)
				}
				b[0]++
				want[blk*bsz]++
				if _, err := f.WriteAt(b, int64(blk*bsz)); err != nil {
					t.Fatal(err)
				}
			}
			overwrite(t, g, make([]byte, 24*bsz), 90, seq(24)...)
			if fs.stage.Len() == 0 {
				t.Fatal("nothing is staged: the test exercises nothing")
			}
			if err := tc.do(fs, clk, f); err != nil {
				t.Fatal(err)
			}
			for _, id := range fs.stage.Blocks(nil) {
				if id.File == f.ID() {
					t.Fatalf("block %d of /f is still staged after %s", id.Block, tc.name)
				}
			}
			if got := fs.stage.Len(); got != tc.other {
				t.Fatalf("%d blocks of /g staged after %s, want %d", got, tc.name, tc.other)
			}
			remountHolds(t, dev, clk, "/f", want)
		})
	}
}

// Freeing a block drops its staged copy with it, so the stale bytes never land
// on the address once it is reallocated: not after Remove, not after a
// shrinking Truncate (which would also show them through the regrown hole).
func TestRemoveDropsStagedBlocks(t *testing.T) {
	secret := bytes.Repeat([]byte{0xEE}, 24*bsz)
	for _, tc := range []struct {
		name string
		free func(fs *FS, a vfs.File) error
		a    []byte // what /a holds at the end (nil: removed)
	}{
		{"Remove", func(fs *FS, a vfs.File) error {
			a.Close()
			return fs.Remove("/a")
		}, nil},
		{"Truncate", func(_ *FS, a vfs.File) error { return a.Truncate(bsz) },
			append(bytes.Repeat([]byte{0xEE}, bsz), make([]byte, 23*bsz)...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, dev, clk := newStagingFS(t)
			a, err := fs.Create("/a")
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			if _, err := a.WriteAt(secret, 0); err != nil {
				t.Fatal(err)
			}
			staged := fs.stage.Len()
			if staged == 0 {
				t.Fatal("none of /a's blocks is staged")
			}
			in, err := fs.LookupLocked("/a")
			if err != nil {
				t.Fatal(err)
			}
			first := in.mapBlock(1)
			if err := tc.free(fs, a); err != nil {
				t.Fatal(err)
			}
			if got := fs.stage.Len(); got >= staged {
				t.Fatalf("%d blocks staged after freeing /a's, %d before", got, staged)
			}
			wantB := pattern(24*bsz, 3)
			writeFile(t, fs, "/b", wantB)
			if inB, err := fs.LookupLocked("/b"); err != nil || inB.mapBlock(0) != first {
				t.Fatalf("/b starts at %d, not at /a's freed block %d: the test reuses no address (%v)", inB.mapBlock(0), first, err)
			}
			if tc.a != nil {
				if err := a.Truncate(24 * bsz); err != nil { // regrow /a over a hole
					t.Fatal(err)
				}
			}
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
			if got := readFile(t, fs, "/b"); !bytes.Equal(got, wantB) {
				t.Fatalf("/b shows bytes it never held (first difference at %d)", firstDiff(got, wantB))
			}
			if tc.a != nil {
				if got := readFile(t, fs, "/a"); !bytes.Equal(got, tc.a) {
					t.Fatalf("/a shows its freed bytes through the hole (first difference at %d)", firstDiff(got, tc.a))
				}
			}
			rep, err := fs.Fsck()
			if err != nil || !rep.OK() {
				t.Fatalf("fsck: %+v, %v", rep, err)
			}
			remountHolds(t, dev, clk, "/b", wantB)
		})
	}
}

// A sweep that fails part-way leaves every staged block staged — the queue
// drops what it had not written — and the next flush writes them all.
func TestFailedStagedFlushKeepsBlocks(t *testing.T) {
	fs, dev, clk := newStagingFS(t)
	const blocks = 300
	f, want := durableFile(t, fs, "/f", blocks, 1)
	order := sim.NewRNG(5).Perm(blocks)
	for i := 0; fs.stage.Len() < stageBlocks; i++ {
		overwrite(t, f, want, 70, order[i])
	}
	injected := errors.New("injected write error")
	writes := 0
	dev.SetFault(func(op string, _ int64) error {
		if op == "write" {
			if writes++; writes == stageBlocks/2 {
				return injected
			}
		}
		return nil
	})
	if _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, injected) {
		t.Fatalf("the sweep under the fault = %v, want the injected error", err)
	}
	dev.SetFault(nil)
	if got := fs.stage.Len(); got != stageBlocks {
		t.Fatalf("%d blocks staged after the failed sweep, want all %d", got, stageBlocks)
	}
	if err := fs.Sync(); err != nil {
		t.Fatalf("Sync after the fault cleared: %v", err)
	}
	if got := fs.stage.Len(); got != 0 {
		t.Fatalf("%d blocks still staged after Sync", got)
	}
	remountHolds(t, dev, clk, "/f", want)
}
