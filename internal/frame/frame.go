// Package frame recycles page-sized buffers. Every layer of the page path —
// the bulk loader, btree, the buffer pools, the file systems, the embedded
// transaction manager — needs block-sized scratch for the length of one
// operation; a List hands the same few frames round instead of allocating a
// fresh one per page touch (DESIGN.md, "Who owns a page buffer").
//
// The ownership rule: only the taker gives a frame back, and only when
// nothing it handed out can still alias it. Give overwrites the frame with
// Poison, so a holder that breaks the rule reads 0xDB bytes instead of
// silently reading another page's contents.
package frame

import "bytes"

// Poison is the byte Give fills a returned frame with.
const Poison = 0xDB

// poisoned is the read-only source Give copies from: a memmove of a 4 KB frame
// takes about 60 ns, a byte-store loop over it about 2 µs.
var poisoned = bytes.Repeat([]byte{Poison}, 4096)

// zeros backs Zero. Nothing writes it.
var zeros [16 << 10]byte

// Zero returns size zero bytes for a caller that only reads them, such as the
// page a store's AllocPage appends to its file. Every caller shares the one
// buffer: writing to it is a bug.
//
//simlint:noalloc
func Zero(size int) []byte {
	if size > len(zeros) {
		//simlint:alloc(no page in this tree is larger than the shared zero buffer)
		return make([]byte, size)
	}
	return zeros[:size:size]
}

// IsZero reports whether every byte of b is zero, comparing it with the shared
// zero buffer a chunk at a time (bytes.Equal compares words, not bytes).
//
//simlint:noalloc
func IsZero(b []byte) bool {
	for len(b) > len(zeros) {
		if !bytes.Equal(b[:len(zeros)], zeros[:]) {
			return false
		}
		b = b[len(zeros):]
	}
	return bytes.Equal(b, zeros[:len(b)])
}

// List is a LIFO list of free frames of one size. LIFO keeps the order frames
// are handed out a pure function of the Take/Give sequence, and the frame
// taken next is the one most recently in cache. A List grows to the
// high-water mark of frames its owner has out at once and stays there.
//
// A List is not safe for concurrent use: it belongs to one long-lived object
// (a buffer pool, a B-tree relation's Scratch, a transaction manager, a file
// system) and is guarded by whatever guards that object.
type List struct {
	size int
	free [][]byte
}

// NewList returns an empty list of frames of size bytes.
func NewList(size int) List { return List{size: size} }

// Size returns the frame size in bytes.
func (l *List) Size() int { return l.size }

// Free returns the number of frames on the list.
func (l *List) Free() int { return len(l.free) }

// Take returns a frame. Its contents are unspecified — Poison when recycled,
// zeros when new — so a taker that does not overwrite all of it clears it
// first.
//
//simlint:noalloc
func (l *List) Take() []byte {
	if n := len(l.free); n > 0 {
		f := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return f
	}
	//simlint:alloc(the list grows to its owner's high-water mark of frames in use, then recycles)
	return make([]byte, l.size)
}

// Give poisons f and puts it on the list. f must be a whole frame that Take
// returned and that nothing else references any more.
//
//simlint:noalloc
func (l *List) Give(f []byte) {
	if len(f) != l.size {
		panic("frame: Give of a buffer that is not one of the list's frames")
	}
	for rest := f; len(rest) > 0; {
		rest = rest[copy(rest, poisoned):]
	}
	//simlint:alloc(the free slice grows to the high-water mark once)
	l.free = append(l.free, f)
}
