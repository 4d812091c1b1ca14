package ffs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/ufs"
)

// FuzzDecodeSlot feeds decodeSlot what a damaged inode slot might hold: it
// returns a free slot, an inode or ErrCorrupt and never panics, and an inode
// it accepts has an overflow pointer exactly when its extent count is past
// the inline extents, which it holds all of, or as many as the count says.
// A seed is the slot that once loaded silently as a 12-extent file: 20
// extents recorded and no overflow pointer.
func FuzzDecodeSlot(f *testing.F) {
	slot := func(n int, overflow int64) []byte {
		in := &inode{Inode: ufs.Inode{Mode: ufs.ModeFile, Nlink: 1, Size: 1 << 20}}
		for i := 0; i < n; i++ {
			in.extents = append(in.extents, extent{Start: int64(100 + 10*i), Len: 3})
		}
		if overflow != 0 {
			in.overflow = []int64{overflow}
		}
		return in.encodeSlot()
	}
	f.Add(make([]byte, inodeSlotSize))
	f.Add(slot(3, 0))
	f.Add(slot(inlineExtents, 0))
	f.Add(slot(20, 900))
	f.Add(slot(20, 0))
	f.Add(slot(3, 900))
	f.Fuzz(func(t *testing.T, raw []byte) {
		b := make([]byte, inodeSlotSize)
		copy(b, raw)
		in, n, err := decodeSlot(b, 5)
		switch {
		case err != nil:
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v is not ErrCorrupt", err)
			}
		case in == nil:
			if b[0] != 0 {
				t.Fatal("a used slot decoded as free")
			}
		case (n > inlineExtents) != (len(in.overflow) > 0) || len(in.extents) != min(n, inlineExtents):
			t.Fatalf("accepted %d extents recorded, %d inline, overflow %v", n, len(in.extents), in.overflow)
		}
	})
}

// FuzzDecodeOverflow feeds decodeOverflow what a damaged overflow block
// might hold, with any number of extents still owed to the inode: it returns
// extents or ErrCorrupt and never panics, and a block it accepts holds between
// one and the owed number of extents and re-encodes to the same header and
// entries.
func FuzzDecodeOverflow(f *testing.F) {
	const blockSize = 4096
	exts := []extent{{Start: 900, Len: 1}, {Start: 902, Len: 3}, {Start: 1 << 40, Len: 7}}
	f.Add(encodeOverflow(blockSize, 0, exts), uint16(3))
	f.Add(encodeOverflow(blockSize, 77, exts), uint16(500))
	f.Add(encodeOverflow(blockSize, 0, exts), uint16(2))
	huge := encodeOverflow(blockSize, 0, exts)
	binary.LittleEndian.PutUint32(huge[8:], 1<<31)
	f.Add(huge, uint16(500))
	f.Fuzz(func(t *testing.T, in []byte, want uint16) {
		b := make([]byte, blockSize)
		copy(b, in)
		got, next, err := decodeOverflow(b, 5, 1234, int(want))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v is not ErrCorrupt", err)
			}
			return
		}
		if len(got) == 0 || len(got) > int(want) || len(got) > overflowCapacity(blockSize) {
			t.Fatalf("accepted %d extents with %d owed", len(got), want)
		}
		enc := encodeOverflow(blockSize, next, got)
		end := 16 + 16*len(got)
		if !bytes.Equal(enc[:12], b[:12]) || !bytes.Equal(enc[16:end], b[16:end]) {
			t.Fatalf("accepted block of %d extents re-encodes to different bytes", len(got))
		}
	})
}
