package ffs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

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
