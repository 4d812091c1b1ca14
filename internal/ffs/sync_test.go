package ffs

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// syncRig is a two-block file "/f", everything durable, one simulated second
// before whatever the test does next.
type syncRig struct {
	t     *testing.T
	fs    *FS
	dev   *disk.Device
	clk   *sim.Clock
	f     vfs.File
	table int64 // the inode-table block holding /f's slot
	mtime int64 // /f's modification time as last made durable
	want  []byte
}

func newSyncRig(t *testing.T) *syncRig {
	t.Helper()
	fs, dev, clk := newFS(t)
	r := &syncRig{t: t, fs: fs, dev: dev, clk: clk, want: pattern(2*4096, 1)}
	writeFile(t, fs, "/f", r.want)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	r.f = f
	r.table, _ = fs.inodeTableBlock(Ino(f.ID()))
	r.mtime = r.crash().Mtime
	clk.Advance(time.Second)
	return r
}

// memMtime is /f's modification time in memory.
func (r *syncRig) memMtime() int64 {
	return r.fs.inodes[Ino(r.f.ID())].Mtime
}

func (r *syncRig) slotBlock() []byte {
	r.t.Helper()
	b, err := r.dev.Peek(r.table)
	if err != nil {
		r.t.Fatal(err)
	}
	return b
}

// crash mounts what the device holds — no FS.Sync — checks /f's bytes and size
// against the model and returns its inode as a crash would have left it.
func (r *syncRig) crash() *inode {
	r.t.Helper()
	fs2, err := Mount(r.dev, r.clk, Options{})
	if err != nil {
		r.t.Fatal(err)
	}
	if got := readFile(r.t, fs2, "/f"); !bytes.Equal(got, r.want) {
		r.t.Fatalf("after a crash /f holds %d bytes that differ from the %d written and synced", len(got), len(r.want))
	}
	in, err := fs2.LookupLocked("/f")
	if err != nil {
		r.t.Fatal(err)
	}
	return in
}

// File.Sync after an overwrite of a mapped block is one device write — the
// block — and leaves the inode table alone; the new modification time becomes
// durable with the next syncer pass or FS.Sync.
func TestSyncAfterOverwriteWritesNoInode(t *testing.T) {
	for _, later := range []struct {
		name string
		do   func(r *syncRig) error
	}{
		{"syncer", func(r *syncRig) error {
			r.clk.Advance(31 * time.Second)
			_, err := r.f.ReadAt(make([]byte, 1), 0) // any access ticks the syncer
			return err
		}},
		{"FS.Sync", func(r *syncRig) error { return r.fs.Sync() }},
	} {
		t.Run(later.name, func(t *testing.T) {
			r := newSyncRig(t)
			slot, writes := r.slotBlock(), r.dev.Stats().Writes
			fresh := pattern(4096, 9)
			copy(r.want[4096:], fresh)
			if _, err := r.f.WriteAt(fresh, 4096); err != nil {
				t.Fatal(err)
			}
			if err := r.f.Sync(); err != nil {
				t.Fatal(err)
			}
			if got := r.dev.Stats().Writes - writes; got != 1 {
				t.Errorf("Sync after a one-block overwrite made %d device writes, want 1", got)
			}
			if !bytes.Equal(r.slotBlock(), slot) {
				t.Error("Sync after an overwrite rewrote the inode-table block")
			}
			if got := r.crash().Mtime; got != r.mtime {
				t.Errorf("mtime after a crash = %d, want the old %d: only the data was forced", got, r.mtime)
			}

			if err := later.do(r); err != nil {
				t.Fatal(err)
			}
			if got, want := r.crash().Mtime, r.memMtime(); got != want || want == r.mtime {
				t.Errorf("mtime after %s and a crash = %d, want the overwrite's %d (was %d)", later.name, got, want, r.mtime)
			}
		})
	}
}

// File.Sync after the size or the block map changed stores the slot, so a
// crash finds the new size and every block.
func TestSyncAfterResizeWritesInode(t *testing.T) {
	for _, tc := range []struct {
		name string
		do   func(r *syncRig) error
	}{
		{"grow by a block", func(r *syncRig) error {
			fresh := pattern(4096, 7)
			r.want = append(r.want, fresh...)
			_, err := r.f.WriteAt(fresh, 2*4096)
			return err
		}},
		{"grow within the last block", func(r *syncRig) error {
			if err := r.f.Truncate(4096 + 100); err != nil {
				return err
			}
			if err := r.f.Sync(); err != nil {
				return err
			}
			r.want = append(r.want[:4096+100], 1, 2, 3)
			_, err := r.f.WriteAt([]byte{1, 2, 3}, 4096+100)
			return err
		}},
		{"Truncate to one block", func(r *syncRig) error {
			r.want = r.want[:4096]
			return r.f.Truncate(4096)
		}},
		{"Truncate past the end", func(r *syncRig) error {
			r.want = append(r.want, make([]byte, 5000)...)
			return r.f.Truncate(int64(len(r.want)))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newSyncRig(t)
			if err := tc.do(r); err != nil {
				t.Fatal(err)
			}
			slot := r.slotBlock()
			if err := r.f.Sync(); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(r.slotBlock(), slot) {
				t.Error("Sync after a resize left the inode-table block as it was")
			}
			if got := r.crash().Size; got != int64(len(r.want)) {
				t.Errorf("size after a crash = %d, want %d", got, len(r.want))
			}
		})
	}
}

// A block the allocator hands out again must not show what the file that
// owned it before left there: not through a hole a sparse write skips, not
// behind a partial write, not after a Truncate that grows the file.
func TestFreshBlocksAreZero(t *testing.T) {
	const bs = 4096
	secret := bytes.Repeat([]byte{0xEE}, 3*bs)
	for _, tc := range []struct {
		name string
		do   func(f vfs.File) error
		size int
	}{
		{"sparse write", func(f vfs.File) error {
			_, err := f.WriteAt([]byte{1}, 3*bs)
			return err
		}, 3*bs + 1},
		{"partial write to a fresh block", func(f vfs.File) error {
			_, err := f.WriteAt([]byte{1}, bs+100)
			return err
		}, bs + 101},
		{"partial write to a fresh block, synced before the file grows past it", func(f vfs.File) error {
			if _, err := f.WriteAt(make([]byte, 200), bs); err != nil {
				return err
			}
			if err := f.Sync(); err != nil {
				return err
			}
			_, err := f.WriteAt([]byte{1}, 2*bs+5)
			return err
		}, 2*bs + 6},
		{"Truncate grows, then a write past it", func(f vfs.File) error {
			if err := f.Truncate(2 * bs); err != nil {
				return err
			}
			_, err := f.WriteAt([]byte{1}, 3*bs+7)
			return err
		}, 3*bs + 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, dev, clk := newFS(t)
			writeFile(t, fs, "/a", pattern(bs, 1))
			writeFile(t, fs, "/b", secret)
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := fs.Remove("/b"); err != nil {
				t.Fatal(err)
			}
			reads := dev.Stats().Reads
			f, err := fs.Open("/a")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if err := tc.do(f); err != nil {
				t.Fatal(err)
			}
			if got := dev.Stats().Reads - reads; got != 0 {
				t.Errorf("writing into just-allocated blocks read the device %d times", got)
			}
			want := append(pattern(bs, 1), make([]byte, tc.size-bs)...)
			want[tc.size-1] = 1
			if got := readFile(t, fs, "/a"); !bytes.Equal(got, want) {
				t.Fatalf("/a shows bytes nobody wrote to it (first difference at %d)", firstDiff(got, want))
			}
			// The zeros are on the device with the inode that maps them.
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			fs2, err := Mount(dev, clk, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := readFile(t, fs2, "/a"); !bytes.Equal(got, want) {
				t.Fatalf("after Sync and a crash /a shows bytes nobody wrote to it (first difference at %d)", firstDiff(got, want))
			}
		})
	}
}

// A growing Truncate reserves the new range, as a preallocating file system
// does: its blocks are mapped, contiguous with the file's last, and zeroed on
// the device in one write before anything can map them — over the addresses a
// removed file's bytes still occupy. A crash right after it, or after the Sync
// that stores the slot, passes fsck; after the Sync the range reads as zeros
// through mapped blocks, and a write into it is an overwrite: its File.Sync is
// one device write and stores no inode.
func TestGrowingTruncateMapsZeroedBlocks(t *testing.T) {
	const bs = 4096
	fs, dev, clk := newFS(t)
	writeFile(t, fs, "/a", pattern(bs, 1))
	writeFile(t, fs, "/b", bytes.Repeat([]byte{0xEE}, 3*bs))
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil { // the freed blocks are free on the device too
		t.Fatal(err)
	}
	f, err := fs.Open("/a")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	in := fs.inodes[Ino(f.ID())]
	st := dev.Stats()
	if err := f.Truncate(4 * bs); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats(); got.Writes-st.Writes != 1 || got.BlocksWrit-st.BlocksWrit != 3 || got.Reads != st.Reads {
		t.Fatalf("growing by 3 blocks made %d writes (%d blocks) and %d reads, want one 3-block write",
			got.Writes-st.Writes, got.BlocksWrit-st.BlocksWrit, got.Reads-st.Reads)
	}
	if len(in.extents) != 1 || in.blocks() != 4 {
		t.Fatalf("extents %+v, want the 4 blocks in one", in.extents)
	}
	for lbn := int64(1); lbn < 4; lbn++ {
		if b, _ := dev.Peek(in.mapBlock(lbn)); !bytes.Equal(b, make([]byte, bs)) {
			t.Fatalf("block %d is mapped before its zeros are on the device", lbn)
		}
	}
	want := append(pattern(bs, 1), make([]byte, 3*bs)...)
	crash := func(when string, size int) *inode {
		t.Helper()
		fs2, err := Mount(dev, clk, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// The bitmap reaches the device only with FS.Sync, so fsck may have
		// allocations to reclaim; nothing may be claimed twice.
		if rep, err := fs2.Fsck(); err != nil || rep.CrossLinked != 0 {
			t.Fatalf("fsck after a crash %s: %v %+v", when, err, rep)
		}
		if got := readFile(t, fs2, "/a"); !bytes.Equal(got, want[:size]) {
			t.Fatalf("after a crash %s /a differs at %d", when, firstDiff(got, want[:size]))
		}
		in2, err := fs2.LookupLocked("/a")
		if err != nil {
			t.Fatal(err)
		}
		return in2
	}
	crash("right after the Truncate", bs)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if in2 := crash("after its Sync", 4*bs); in2.blocks() != 4 {
		t.Fatalf("after the Sync and a crash /a maps %d blocks, want 4", in2.blocks())
	}
	st, stores := dev.Stats(), fs.Stats().SyncInodeStores
	copy(want[2*bs:], pattern(bs, 5))
	if _, err := f.WriteAt(want[2*bs:3*bs], 2*bs); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().Writes - st.Writes; got != 1 || fs.Stats().SyncInodeStores != stores {
		t.Fatalf("Sync after a write into the reserved range: %d device writes, %d inode stores; want 1 and 0",
			got, fs.Stats().SyncInodeStores-stores)
	}
	crash("after the write's Sync", 4*bs)
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
