package ffs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/vfs"
)

func newFS(t *testing.T) (*FS, *disk.Device, *sim.Clock) {
	t.Helper()
	clk := sim.NewClock()
	dev := disk.New(sim.SmallModel(), clk)
	fs, err := Format(dev, clk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return fs, dev, clk
}

func writeFile(t *testing.T, fs vfs.FileSystem, path string, data []byte) {
	t.Helper()
	f, err := fs.Create(path)
	if err != nil {
		t.Fatalf("Create(%s): %v", path, err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("WriteAt(%s): %v", path, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, fs vfs.FileSystem, path string) []byte {
	t.Helper()
	f, err := fs.Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil {
		t.Fatal(err)
	}
	return data
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*5 + seed
	}
	return b
}

func TestRoundTrip(t *testing.T) {
	fs, _, _ := newFS(t)
	data := pattern(50000, 1)
	writeFile(t, fs, "/f", data)
	if got := readFile(t, fs, "/f"); !bytes.Equal(got, data) {
		t.Fatal("read back mismatch")
	}
}

func TestSequentialAllocationIsContiguous(t *testing.T) {
	fs, _, _ := newFS(t)
	f, err := fs.Create("/seq")
	if err != nil {
		t.Fatal(err)
	}
	// 100 sequential block writes should coalesce into one extent.
	buf := pattern(4096, 2)
	for i := int64(0); i < 100; i++ {
		if _, err := f.WriteAt(buf, i*4096); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	in, _ := fs.LookupLocked("/seq")
	next := len(in.extents)
	if next != 1 {
		t.Fatalf("sequential file has %d extents, want 1 (read-optimized layout)", next)
	}
}

// TestInPlaceUpdate is the defining contrast with LFS: rewriting a block
// must keep its disk address.
func TestInPlaceUpdate(t *testing.T) {
	fs, _, _ := newFS(t)
	writeFile(t, fs, "/f", pattern(8192, 3))
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	in, _ := fs.LookupLocked("/f")
	before := in.mapBlock(1)

	f, _ := fs.Open("/f")
	f.WriteAt(pattern(4096, 9), 4096)
	f.Close()
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	after := in.mapBlock(1)
	if before == 0 || before != after {
		t.Fatalf("block moved from %d to %d; FFS must update in place", before, after)
	}
}

func TestSyncerFlushesAfterInterval(t *testing.T) {
	fs, _, clk := newFS(t)
	writeFile(t, fs, "/f", pattern(40960, 4))
	st0 := fs.Stats()
	// Before the interval nothing is flushed by reads.
	f, _ := fs.Open("/f")
	buf := make([]byte, 100)
	f.ReadAt(buf, 0)
	if fs.Stats().SyncerRuns != st0.SyncerRuns {
		t.Fatal("syncer should not run before the interval")
	}
	// Advance simulated time past 30 s; the next operation triggers it.
	clk.Advance(31 * time.Second)
	f.ReadAt(buf, 0)
	f.Close()
	if fs.Stats().SyncerRuns <= st0.SyncerRuns {
		t.Fatal("syncer should run after the interval")
	}
}

func TestRemountPersistence(t *testing.T) {
	fs, dev, clk := newFS(t)
	fs.Mkdir("/d")
	data := pattern(123456, 5)
	writeFile(t, fs, "/d/f", data)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(dev, clk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, fs2, "/d/f"); !bytes.Equal(got, data) {
		t.Fatal("data lost across remount")
	}
	entries, err := fs2.ReadDir("/d")
	if err != nil || len(entries) != 1 {
		t.Fatalf("ReadDir after remount: %v, %v", entries, err)
	}
}

// overflowFile writes /a and /b a block at a time in turn, so that /a's
// extents overflow the inode's inline dozen, syncs, and returns the file
// system, the bytes each file holds and /a's overflow chain. The two inodes
// share an inode-table block.
func overflowFile(t *testing.T) (*FS, []byte, []int64) {
	t.Helper()
	fs, _, _ := newFS(t)
	fa, _ := fs.Create("/a")
	fb, _ := fs.Create("/b")
	buf := pattern(4096, 6)
	want := make([]byte, 0, 40*4096)
	for i := int64(0); i < 40; i++ {
		if _, err := fa.WriteAt(buf, i*4096); err != nil {
			t.Fatal(err)
		}
		if _, err := fb.WriteAt(buf, i*4096); err != nil {
			t.Fatal(err)
		}
		want = append(want, buf...)
	}
	fa.Close()
	fb.Close()
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	in, _ := fs.LookupLocked("/a")
	if len(in.overflow) == 0 {
		t.Fatalf("/a has %d extents and no overflow block", len(in.extents))
	}
	return fs, want, in.overflow
}

func TestOverflowExtents(t *testing.T) {
	fs, want, _ := overflowFile(t)
	fs2, err := Mount(fs.dev, fs.clock, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, fs2, "/a"); !bytes.Equal(got, want) {
		t.Fatal("overflow-extent file corrupted across remount")
	}
}

// TestLoadingOverflowKeepsTheInodeTable: reading a file's overflow extent
// chain must not overwrite the cached inode-table block its slot sits in. A
// sibling synced after the file is loaded writes that cached block through,
// so a damaged cache would lose every inode in the block on disk.
func TestLoadingOverflowKeepsTheInodeTable(t *testing.T) {
	fs, want, _ := overflowFile(t)
	fs2, err := Mount(fs.dev, fs.clock, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sib, err := fs2.Open("/b")
	if err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, fs2, "/a"); !bytes.Equal(got, want) {
		t.Fatal("overflow-extent file corrupted across remount")
	}
	// Growing /b makes its Sync store its inode, through the cached table
	// block /a's slot shares.
	grow := pattern(4096, 77)
	if _, err := sib.WriteAt(grow, int64(len(want))); err != nil {
		t.Fatal(err)
	}
	if err := sib.Sync(); err != nil {
		t.Fatal(err)
	}
	sib.Close()

	fs3, err := Mount(fs.dev, fs.clock, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, fs3, "/a"); !bytes.Equal(got, want) {
		t.Fatal("/a corrupted after a sibling's Sync")
	}
	if got := readFile(t, fs3, "/b"); !bytes.Equal(got, append(want, grow...)) {
		t.Fatal("/b corrupted after its Sync")
	}
}

// TestOverflowChainRejectsCorruption: an overflow block that is empty, whose
// count runs past the block, or whose chain points back to itself fails the
// file's Open with ErrCorrupt instead of a panic or a loop that never ends.
func TestOverflowChainRejectsCorruption(t *testing.T) {
	for _, c := range []struct {
		name   string
		damage func(b []byte, self int64)
	}{
		{"count past the block", func(b []byte, _ int64) {
			binary.LittleEndian.PutUint32(b[8:], uint32(overflowCapacity(len(b))+1))
		}},
		{"chain points to itself", func(b []byte, self int64) {
			binary.LittleEndian.PutUint64(b[0:], uint64(self))
		}},
		{"empty block", func(b []byte, _ int64) {
			binary.LittleEndian.PutUint32(b[8:], 0)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs, _, chain := overflowFile(t)
			blk := chain[len(chain)-1]
			b := make([]byte, fs.blockSize)
			if err := fs.dev.Read(blk, b); err != nil {
				t.Fatal(err)
			}
			c.damage(b, blk)
			if err := fs.dev.Write(blk, b); err != nil {
				t.Fatal(err)
			}
			fs2, err := Mount(fs.dev, fs.clock, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs2.Open("/a"); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open of a file with a damaged overflow block = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestTruncate(t *testing.T) {
	fs, _, _ := newFS(t)
	writeFile(t, fs, "/t", pattern(20000, 7))
	f, _ := fs.Open("/t")
	if err := f.Truncate(5000); err != nil {
		t.Fatal(err)
	}
	if sz, _ := f.Size(); sz != 5000 {
		t.Fatalf("size = %d", sz)
	}
	if err := f.Truncate(9000); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4000)
	f.ReadAt(buf, 5000)
	for _, v := range buf {
		if v != 0 {
			t.Fatal("regrown region should be zeros")
		}
	}
	f.Close()
}

func TestTruncateFreesBlocks(t *testing.T) {
	fs, _, _ := newFS(t)
	writeFile(t, fs, "/t", pattern(100*4096, 8))
	in, _ := fs.LookupLocked("/t")
	before := in.blocks()
	f, _ := fs.Open("/t")
	if err := f.Truncate(4096); err != nil {
		t.Fatal(err)
	}
	f.Close()
	after := in.blocks()
	if before != 100 || after != 1 {
		t.Fatalf("blocks %d → %d, want 100 → 1", before, after)
	}
}

func TestRemoveFreesSpace(t *testing.T) {
	fs, _, _ := newFS(t)
	writeFile(t, fs, "/big", pattern(200*4096, 9))
	var used0 int64
	for b := fs.sb.DataStart; b < fs.sb.TotalBlocks; b++ {
		if fs.bit(b) {
			used0++
		}
	}
	if err := fs.Remove("/big"); err != nil {
		t.Fatal(err)
	}
	var used1 int64
	for b := fs.sb.DataStart; b < fs.sb.TotalBlocks; b++ {
		if fs.bit(b) {
			used1++
		}
	}
	if used1 >= used0 {
		t.Fatalf("used blocks %d → %d; remove should free space", used0, used1)
	}
	if _, err := fs.Open("/big"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatal("file should be gone")
	}
}

func TestDirectoriesNested(t *testing.T) {
	fs, _, _ := newFS(t)
	for _, d := range []string{"/a", "/a/b", "/a/b/c"} {
		if err := fs.Mkdir(d); err != nil {
			t.Fatalf("Mkdir(%s): %v", d, err)
		}
	}
	writeFile(t, fs, "/a/b/c/deep", []byte("deep"))
	if got := readFile(t, fs, "/a/b/c/deep"); string(got) != "deep" {
		t.Fatal("deep file content wrong")
	}
	if err := fs.Remove("/a"); !errors.Is(err, vfs.ErrNotEmpty) {
		t.Fatalf("got %v, want ErrNotEmpty", err)
	}
}

func TestTxnProtectPersists(t *testing.T) {
	fs, dev, clk := newFS(t)
	writeFile(t, fs, "/db", []byte("x"))
	if err := fs.SetTxnProtected("/db", true); err != nil {
		t.Fatal(err)
	}
	fs.Sync()
	fs2, err := Mount(dev, clk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	info, _ := fs2.Stat("/db")
	if !info.TxnProtected {
		t.Fatal("attribute lost across remount")
	}
}

func TestInodeExhaustion(t *testing.T) {
	clk := sim.NewClock()
	dev := disk.New(sim.SmallModel(), clk)
	fs, err := Format(dev, clk, Options{MaxInodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < 20 && lastErr == nil; i++ {
		var f vfs.File
		f, lastErr = fs.Create(fmt.Sprintf("/f%d", i))
		if lastErr == nil {
			f.Close()
		}
	}
	if !errors.Is(lastErr, ErrNoInodes) {
		t.Fatalf("got %v, want ErrNoInodes", lastErr)
	}
}

func TestDiskFull(t *testing.T) {
	clk := sim.NewClock()
	model := sim.SmallModel()
	model.NumBlocks = 1024 // 4 MB
	dev := disk.New(model, clk)
	fs, err := Format(dev, clk, Options{MaxInodes: 64, CacheBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < 50 && lastErr == nil; i++ {
		var f vfs.File
		f, lastErr = fs.Create(fmt.Sprintf("/f%d", i))
		if lastErr != nil {
			break
		}
		_, lastErr = f.WriteAt(pattern(100*4096, byte(i)), 0)
		f.Close()
	}
	if !errors.Is(lastErr, ErrNoSpace) {
		t.Fatalf("got %v, want ErrNoSpace", lastErr)
	}
}

// TestSequentialReadFastAfterRandomUpdates verifies the read-optimized
// property at the heart of Figure 6: random in-place updates do not degrade
// subsequent sequential read locality.
func TestSequentialReadFastAfterRandomUpdates(t *testing.T) {
	fs, dev, clk := newFS(t)
	const blocks = 512
	data := pattern(blocks*4096, 10)
	writeFile(t, fs, "/scan", data)
	fs.Sync()

	// Random updates.
	rng := sim.NewRNG(11)
	f, _ := fs.Open("/scan")
	for i := 0; i < 200; i++ {
		lbn := rng.Int63n(blocks)
		f.WriteAt(pattern(4096, byte(i)), lbn*4096)
	}
	fs.Sync()

	// Sequential scan: measure simulated time; drop the cache first by
	// remounting.
	fs2, err := Mount(dev, clk, Options{CacheBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := fs2.Open("/scan")
	start := clk.Now()
	buf := make([]byte, 64*1024)
	for off := int64(0); off < blocks*4096; off += int64(len(buf)) {
		if _, err := g.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
	scanTime := clk.Now() - start
	g.Close()
	f.Close()

	// The scan should approach media rate: compare with the pure transfer
	// time of the same bytes (allow 3× for block-at-a-time reads).
	media := dev.Model().TransferTime(blocks * 4096)
	if scanTime > 5*media {
		t.Fatalf("sequential scan %v too slow vs media %v; layout not read-optimized", scanTime, media)
	}
}

// A device error in the middle of a write-back must not lose the blocks the
// flush had not reached: they stay dirty and the next flush writes them. (The
// buffers used to be marked clean as they were queued, and the queue drops what
// it has not serviced when a write fails.)
func TestFailedWriteBackKeepsBlocksDirty(t *testing.T) {
	fs, dev, clk := newFS(t)
	bs := fs.BlockSize()
	const blocks = 8
	writeFile(t, fs, "/a", pattern(blocks*bs, 1))
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("/a")
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(blocks*bs, 1)
	for _, blk := range []int{0, 2, 4, 6} { // four separate runs on the device
		fresh := pattern(bs, byte(100+blk))
		copy(want[blk*bs:], fresh)
		if _, err := f.WriteAt(fresh, int64(blk*bs)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	injected := errors.New("injected write error")
	writes := 0
	dev.SetFault(func(op string, _ int64) error {
		if op == "write" {
			if writes++; writes == 2 {
				return injected
			}
		}
		return nil
	})
	if err := fs.Sync(); !errors.Is(err, injected) {
		t.Fatalf("Sync under the fault = %v, want the injected error", err)
	}
	dev.SetFault(nil)
	if err := fs.Sync(); err != nil {
		t.Fatalf("Sync after the fault cleared: %v", err)
	}

	remounted, err := Mount(dev, clk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := readFile(t, remounted, "/a")
	for blk := 0; blk < blocks; blk++ {
		if !bytes.Equal(got[blk*bs:(blk+1)*bs], want[blk*bs:(blk+1)*bs]) {
			t.Errorf("block %d holds stale bytes after a failed and a successful Sync", blk)
		}
	}
}
