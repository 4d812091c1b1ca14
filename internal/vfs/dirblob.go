package vfs

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// RawDirEntry is the serialized form of a directory entry, shared by both
// file system implementations.
type RawDirEntry struct {
	Ino   uint64
	IsDir bool
	Name  string
}

// EncodeDirEntries serializes a directory's entries. Layout:
//
//	count  uint32
//	repeat count times:
//	  ino     uint64
//	  isdir   uint8
//	  namelen uint16
//	  name    [namelen]byte
func EncodeDirEntries(entries []RawDirEntry) []byte {
	size := 4
	for _, e := range entries {
		size += dirEntryMin + len(e.Name)
	}
	out := make([]byte, size)
	binary.LittleEndian.PutUint32(out, uint32(len(entries)))
	off := 4
	for _, e := range entries {
		binary.LittleEndian.PutUint64(out[off:], e.Ino)
		off += 8
		if e.IsDir {
			out[off] = 1
		}
		off++
		binary.LittleEndian.PutUint16(out[off:], uint16(len(e.Name)))
		off += 2
		copy(out[off:], e.Name)
		off += len(e.Name)
	}
	return out
}

// dirEntryMin is the encoded size of an entry with an empty name.
const dirEntryMin = 8 + 1 + 2

// DecodeDirEntries parses a directory blob produced by EncodeDirEntries,
// possibly followed by padding. The blob comes back from the medium, so its
// count is bounded by what the bytes could hold before anything is allocated.
func DecodeDirEntries(b []byte) ([]RawDirEntry, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("vfs: directory blob too short (%d bytes)", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	if max := (len(b) - 4) / dirEntryMin; n < 0 || n > max {
		return nil, fmt.Errorf("vfs: directory blob of %d bytes claims %d entries, at most %d fit", len(b), n, max)
	}
	off := 4
	entries := make([]RawDirEntry, 0, n)
	for i := 0; i < n; i++ {
		if off+dirEntryMin > len(b) {
			return nil, fmt.Errorf("vfs: truncated directory entry %d", i)
		}
		var e RawDirEntry
		e.Ino = binary.LittleEndian.Uint64(b[off:])
		off += 8
		e.IsDir = b[off] == 1
		off++
		nameLen := int(binary.LittleEndian.Uint16(b[off:]))
		off += 2
		if off+nameLen > len(b) {
			return nil, fmt.Errorf("vfs: truncated directory name in entry %d", i)
		}
		e.Name = string(b[off : off+nameLen])
		off += nameLen
		entries = append(entries, e)
	}
	return entries, nil
}

// SortDirEntries orders entries by name for deterministic listings.
func SortDirEntries(entries []RawDirEntry) {
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
}
