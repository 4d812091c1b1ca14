package buffer

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// MaxSpans bounds the spans a Changed keeps; one more joins its nearer
// neighbour, the bytes between them included.
const MaxSpans = 6

// Span is a byte range [Lo, Hi) of a block.
type Span struct{ Lo, Hi uint16 }

// Room bounds the spans a Changed keeps: Bytes of the records that would carry
// them, a Header each plus the span. Spans closer than a Header join. The zero
// Room keeps only the hull.
type Room struct{ Bytes, Header int }

// Changed is a buffer's record of how its bytes differ from its block's
// durable image, learned by comparing each write with the bytes it replaces
// (Buf.Note): the hull, from the first through the last changed byte, and,
// while their records fit the owner's Room, sorted disjoint spans covering
// every changed byte (unchanged ones they cover still hold their durable
// values). An unknown record has the whole block as its hull and no spans,
// which no write changes, until the pool empties it as the buffer turns
// clean. Offsets are 16-bit: blocks of at most 32 KiB.
type Changed struct {
	lo, hi  uint16 // the hull; empty when lo >= hi
	size    uint16 // Σ (Room.Header + span length) over spans[:n]
	n       uint8
	dropped bool // the spans outgrew the Room, or the record is unknown
	spans   [MaxSpans]Span
}

// Empty reports whether no byte differs from the durable image.
func (c *Changed) Empty() bool { return c.lo >= c.hi }

// Hull returns the bytes [lo, hi) from the first through the last changed
// byte; lo >= hi when none changed.
func (c *Changed) Hull() (lo, hi int) { return int(c.lo), int(c.hi) }

// Spans returns the spans, aliasing the record, and the bytes their records
// take; ok is false once they outgrew the Room, or the record is unknown.
func (c *Changed) Spans() (spans []Span, size int, ok bool) {
	return c.spans[:c.n], int(c.size), !c.dropped
}

// Note grows b's record by what a write of p at off changes, before p is
// copied into b, measured against base: b's bytes while b is dirty, for a
// clean b its block's durable image; nil marks the record unknown.
//
//simlint:noalloc
func (b *Buf) Note(base []byte, off int, p []byte, room Room) {
	if base == nil {
		b.MarkUnknown()
		return
	}
	b.Changed.note(base[off:off+len(p)], p, off, room)
}

// MarkUnknown marks b's record unknown until b is clean again.
//
//simlint:noalloc
func (b *Buf) MarkUnknown() { b.Changed = Changed{hi: uint16(len(b.Data)), dropped: true} }

// note grows the record by the bytes where new, written at off, differs from
// old: every run of them while the spans are kept, else only the runs before
// and after the hull, the only bytes that can move it.
func (c *Changed) note(old, new []byte, off int, room Room) {
	c.dropped = c.dropped || room.Bytes == 0
	i, n, gap := 0, len(new), room.Header
	if c.dropped {
		gap = 8 // any gap finds the same hull; a word keeps the runs few
		if !c.Empty() {
			front := min(max(int(c.lo)-off, 0), n)
			if lo, hi := nextRun(old[:front], new[:front], 0, gap); lo < front {
				c.grow(off+lo, off+hi)
			}
			i = min(max(int(c.hi)-off, 0), n)
		}
	} else if bytes.Equal(old, new) {
		return
	}
	for i < n {
		lo, hi := nextRun(old, new, i, gap)
		if lo == n {
			return
		}
		c.grow(off+lo, off+hi)
		i = hi
		if !c.dropped && !c.add(off+lo, off+hi, room) {
			c.n, c.size, c.dropped, gap = 0, 0, true, 8
		}
		if c.dropped {
			i = max(i, int(c.hi)-off)
		}
	}
}

// grow widens the hull to cover [lo, hi).
func (c *Changed) grow(lo, hi int) {
	if c.Empty() {
		c.lo, c.hi = uint16(lo), uint16(hi)
	} else {
		c.lo, c.hi = min(c.lo, uint16(lo)), max(c.hi, uint16(hi))
	}
}

// add merges [lo, hi) into the spans, joining those closer than a header and,
// past MaxSpans, the nearer neighbour. It reports whether the records fit.
func (c *Changed) add(lo, hi int, room Room) bool {
	h, n := room.Header, int(c.n)
	i := 0
	for i < n && int(c.spans[i].Hi)+h <= lo {
		i++
	}
	j := i
	for j < n && int(c.spans[j].Lo) <= hi+h {
		j++
	}
	if i == j && n == MaxSpans {
		if j == n || i > 0 && lo-int(c.spans[i-1].Hi) <= int(c.spans[j].Lo)-hi {
			i--
		} else {
			j++
		}
	}
	// [lo, hi) and spans i..j-1 become one span in slot i.
	size := int(c.size)
	for _, r := range c.spans[i:j] {
		lo, hi = min(lo, int(r.Lo)), max(hi, int(r.Hi))
		size -= h + int(r.Hi-r.Lo)
	}
	copy(c.spans[i+1:], c.spans[j:n])
	c.n = uint8(n + 1 - (j - i))
	c.spans[i] = Span{uint16(lo), uint16(hi)}
	size += h + hi - lo
	c.size = uint16(size)
	return size <= room.Bytes
}

// Hull returns the bytes [lo, hi) from the first through the last byte where
// old and new differ, lo == hi == len(new) when none does. old and new have
// equal lengths: a page write hands over the whole page.
//
//simlint:noalloc
func Hull(old, new []byte) (lo, hi int) { return nextRun(old, new, 0, len(new)) }

// nextRun is the one diff scanner: the first run at or after i of bytes where
// old and new differ, compared a word at a time. The run starts at a
// differing byte and ends after the last one not followed by gap equal bytes,
// so runs closer than gap are one; lo is len(new) when none differs.
func nextRun(old, new []byte, i, gap int) (lo, hi int) {
	le := binary.LittleEndian
	n := len(new)
	for i+8 <= n {
		if x := le.Uint64(old[i:]) ^ le.Uint64(new[i:]); x != 0 {
			i += bits.TrailingZeros64(x) / 8
			break
		}
		i += 8
	}
	for i < n && old[i] == new[i] {
		i++
	}
	if i == n {
		return n, n
	}
	lo, hi = i, i+1
	for j := hi; j < n && j-hi < gap; {
		if j+8 <= n {
			if x := le.Uint64(old[j:]) ^ le.Uint64(new[j:]); x != 0 {
				hi = j + 8 - bits.LeadingZeros64(x)/8
			}
			j += 8
		} else {
			if old[j] != new[j] {
				hi = j + 1
			}
			j++
		}
	}
	return lo, hi
}
