package vfs

import (
	"reflect"
	"strings"
	"testing"
)

// TestDecodeDirEntriesHostileCount: a count the blob cannot hold is an
// error, not an allocation of that many entries.
func TestDecodeDirEntriesHostileCount(t *testing.T) {
	for _, b := range [][]byte{
		{0xff, 0xff, 0xff, 0x7f},
		{0xff, 0xff, 0xff, 0xff},
		append([]byte{2, 0, 0, 0}, make([]byte, dirEntryMin)...),
	} {
		if _, err := DecodeDirEntries(b); err == nil || !strings.Contains(err.Error(), "entries") {
			t.Errorf("DecodeDirEntries(% x) = %v, want an error naming the count", b, err)
		}
	}
}

// FuzzDecodeDirEntries: whatever bytes come back from the medium, the decoder
// returns entries or an error — it never panics, never reserves more entries
// than the blob could hold, and what it accepts re-encodes to the same
// entries.
func FuzzDecodeDirEntries(f *testing.F) {
	many := make([]RawDirEntry, 300)
	for i := range many {
		many[i] = RawDirEntry{Ino: uint64(i + 2), IsDir: i%7 == 0, Name: strings.Repeat("n", i%40+1)}
	}
	for _, entries := range [][]RawDirEntry{
		nil,
		{{Ino: 2, Name: "f"}},
		many,
		{{Ino: 3, IsDir: true, Name: strings.Repeat("x", 1<<16-1)}},
	} {
		blob := EncodeDirEntries(entries)
		f.Add(blob)
		// As FFS stores it: padded with zeros to a whole 4 KB block.
		f.Add(append(blob, make([]byte, 4096-len(blob)%4096)...))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, b []byte) {
		entries, err := DecodeDirEntries(b)
		if err != nil {
			return
		}
		if cap(entries)*dirEntryMin > len(b) {
			t.Fatalf("reserved %d entries for a %d-byte blob", cap(entries), len(b))
		}
		again, err := DecodeDirEntries(EncodeDirEntries(entries))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(again) != len(entries) || (len(entries) > 0 && !reflect.DeepEqual(again, entries)) {
			t.Fatalf("round trip changed the entries: %v → %v", entries, again)
		}
	})
}
