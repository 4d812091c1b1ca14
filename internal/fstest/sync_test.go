package fstest_test

import (
	"bytes"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// TestSyncContract is vfs.File.Sync's promise at a crash, on every target:
// whatever the write before it did to the file — to its bytes, its size or
// its block map — a mount of what the device holds right after Sync returned
// (no FileSystem.Sync, no unmount) finds the bytes and the size. Each case
// starts from a durable three-and-a-bit-block file beside the freed blocks of
// a removed one, so that a block the file system failed to zero or to write
// shows the other file's 0xEE.
func TestSyncContract(t *testing.T) {
	const bs = 4096
	for _, tc := range []struct {
		name string
		do   func(f vfs.File, model []byte) ([]byte, error)
	}{
		{"overwrite", func(f vfs.File, model []byte) ([]byte, error) {
			fresh := pattern(bs+300, 7)
			copy(model[bs-100:], fresh)
			_, err := f.WriteAt(fresh, bs-100)
			return model, err
		}},
		{"grow", func(f vfs.File, model []byte) ([]byte, error) {
			fresh := pattern(bs+bs/2, 8)
			_, err := f.WriteAt(fresh, int64(len(model)))
			return append(model, fresh...), err
		}},
		{"shrink", func(f vfs.File, model []byte) ([]byte, error) {
			return model[:bs+100], f.Truncate(bs + 100)
		}},
		{"sparse write", func(f vfs.File, model []byte) ([]byte, error) {
			off := len(model) + 2*bs + 17
			model = append(model, make([]byte, off-len(model))...)
			_, err := f.WriteAt([]byte{1, 2, 3}, int64(off))
			return append(model, 1, 2, 3), err
		}},
		{"write into a hole", func(f vfs.File, model []byte) ([]byte, error) {
			model = append(model, make([]byte, 4*bs)...)
			if err := f.Truncate(int64(len(model))); err != nil {
				return nil, err
			}
			off := len(model) - 2*bs - 50
			copy(model[off:], []byte{4, 5, 6})
			_, err := f.WriteAt([]byte{4, 5, 6}, int64(off))
			return model, err
		}},
	} {
		for _, tg := range targets {
			t.Run(tc.name+"/"+tg.name, func(t *testing.T) {
				clk := sim.NewClock()
				dev := disk.New(sim.SmallModel(), clk)
				fsys, _ := tg.mount(t, dev, clk, true)
				model := pattern(3*bs+500, 1)
				f, err := fsys.Create("/f")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteAt(model, 0); err != nil {
					t.Fatal(err)
				}
				g, err := fsys.Create("/removed")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := g.WriteAt(bytes.Repeat([]byte{0xEE}, 8*bs), 0); err != nil {
					t.Fatal(err)
				}
				if err := g.Close(); err != nil {
					t.Fatal(err)
				}
				if err := fsys.Sync(); err != nil {
					t.Fatal(err)
				}
				if err := fsys.Remove("/removed"); err != nil {
					t.Fatal(err)
				}
				if err := fsys.Sync(); err != nil {
					t.Fatal(err)
				}

				if model, err = tc.do(f, model); err != nil {
					t.Fatal(err)
				}
				if err := f.Sync(); err != nil {
					t.Fatal(err)
				}

				// The crash: everything in memory is gone.
				crashed, _ := tg.mount(t, dev, clk, false)
				info, err := crashed.Stat("/f")
				if err != nil {
					t.Fatal(err)
				}
				if info.Size != int64(len(model)) {
					t.Errorf("size after Sync and a crash = %d, want %d", info.Size, len(model))
				}
				h, err := crashed.Open("/f")
				if err != nil {
					t.Fatal(err)
				}
				defer h.Close()
				got := make([]byte, len(model)+bs)
				n, err := h.ReadAt(got, 0)
				if err != nil {
					t.Fatal(err)
				}
				if got = got[:n]; !bytes.Equal(got, model) {
					i := 0
					for i < len(got) && i < len(model) && got[i] == model[i] {
						i++
					}
					t.Fatalf("after Sync and a crash /f has %d bytes, the model %d; they first differ at %d", len(got), len(model), i)
				}
			})
		}
	}
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}
