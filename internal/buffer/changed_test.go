package buffer

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestChangedRecordProperties drives a buffer's record of changed bytes with
// seeded random writes over a random block and checks it against a model,
// the set of bytes some write changed since the buffer was last clean:
//   - the hull runs exactly from the first through the last of them;
//   - while the spans are kept, every one of them lies in a span, and there
//     are at most MaxSpans spans, sorted, inside the hull, no two closer than
//     a record header, whose records take the size reported, within the room;
//   - an unknown record stays unknown, the hull the whole block, whatever is
//     written after;
//   - a buffer that becomes clean has an empty record.
func TestChangedRecordProperties(t *testing.T) {
	const bs = 512
	rooms := []Room{{}, {Bytes: 64, Header: 20}, {Bytes: bs - 40, Header: 20}, {Bytes: 200, Header: 1}, {Bytes: 300}}
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		room := rooms[rng.Intn(len(rooms))]
		p := New(1, bs, nil)
		b, err := p.GetForWrite(BlockID{File: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng.Read(b.Data)
		changed := make([]bool, bs) // the model
		marked := false
		for step := 0; step < 40; step++ {
			switch r := rng.Intn(20); {
			case r == 0:
				b.MarkUnknown()
				p.MarkDirty(b)
				marked = true
			case r == 1:
				p.MarkClean(b)
				if b.Changed != (Changed{}) {
					t.Fatalf("seed %d step %d: a clean buffer's record is %+v", seed, step, b.Changed)
				}
				clear(changed)
				marked = false
			default:
				off, w := randomWrite(rng, b.Data)
				for i, c := range w {
					if c != b.Data[off+i] {
						changed[off+i] = true
					}
				}
				b.Note(b.Data, off, w, room)
				copy(b.Data[off:], w)
				p.MarkDirty(b)
			}
			checkRecord(t, seed, step, &b.Changed, changed, marked, room)
		}
	}
}

// randomWrite returns a write over data: mostly data's own bytes with a few
// changed, a stretch of random bytes, or an identical rewrite.
func randomWrite(rng *rand.Rand, data []byte) (off int, w []byte) {
	off = rng.Intn(len(data))
	n := 1 + rng.Intn(len(data)-off)
	if rng.Intn(8) == 0 {
		off, n = 0, len(data)
	}
	w = bytes.Clone(data[off : off+n])
	switch rng.Intn(6) {
	case 0:
		rng.Read(w[rng.Intn(n):])
	case 1:
	default:
		for range 1 + rng.Intn(6) {
			w[rng.Intn(n)] ^= byte(1 + rng.Intn(255))
		}
	}
	return off, w
}

func checkRecord(t *testing.T, seed int64, step int, c *Changed, changed []bool, marked bool, room Room) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d (room %+v): "+format, append([]any{seed, step, room}, args...)...)
	}
	lo, hi := c.Hull()
	spans, size, ok := c.Spans()
	if marked {
		if lo != 0 || hi != len(changed) || ok {
			fail("an unknown record has hull [%d, %d), spans kept %v", lo, hi, ok)
		}
		return
	}
	first, last := len(changed), -1
	for i, ch := range changed {
		if ch {
			first, last = min(first, i), i
		}
	}
	if last < 0 && lo < hi || last >= 0 && (lo != first || hi != last+1) {
		fail("hull [%d, %d), want the changed bytes [%d, %d]", lo, hi, first, last)
	}
	if !ok {
		return
	}
	if len(spans) > MaxSpans || size > room.Bytes {
		fail("%d spans of %d bytes in a room of %d", len(spans), size, room.Bytes)
	}
	sum := 0
	for i, s := range spans {
		sum += room.Header + int(s.Hi-s.Lo)
		if s.Lo >= s.Hi || int(s.Lo) < lo || int(s.Hi) > hi || i > 0 && int(s.Lo)-int(spans[i-1].Hi) < room.Header {
			fail("spans %v in hull [%d, %d): empty, outside it, unsorted or closer than a header", spans, lo, hi)
		}
	}
	if sum != size {
		fail("spans %v take %d bytes, reported %d", spans, sum, size)
	}
	for i, ch := range changed {
		in := false
		for _, s := range spans {
			in = in || int(s.Lo) <= i && i < int(s.Hi)
		}
		if ch && !in {
			fail("changed byte %d lies in no span of %v", i, spans)
		}
	}
}
