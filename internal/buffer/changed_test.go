package buffer

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/frame"
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

// naiveHull is Hull as a byte loop: the first and one past the last byte
// where old and new differ, (len(new), len(new)) when none does.
func naiveHull(old, new []byte) (lo, hi int) {
	lo, hi = len(new), len(new)
	for i := range new {
		if old[i] != new[i] {
			if lo == len(new) {
				lo = i
			}
			hi = i + 1
		}
	}
	return lo, hi
}

func naiveZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// checkScanners checks Hull on (old, new), and frame.IsZero on both and on
// every suffix of new that starts in its first 25 bytes, against byte loops.
func checkScanners(t *testing.T, what string, old, new []byte) {
	t.Helper()
	lo, hi := Hull(old, new)
	if wlo, whi := naiveHull(old, new); lo != wlo || hi != whi {
		t.Fatalf("%s: Hull = [%d, %d), want [%d, %d)", what, lo, hi, wlo, whi)
	}
	for _, b := range [][]byte{old, new} {
		if got, want := frame.IsZero(b), naiveZero(b); got != want {
			t.Fatalf("%s: IsZero of %d bytes = %v, want %v", what, len(b), got, want)
		}
	}
	for i := 0; i < min(len(new), 25); i++ {
		if got, want := frame.IsZero(new[i:]), naiveZero(new[i:]); got != want {
			t.Fatalf("%s: IsZero of new[%d:] = %v, want %v", what, i, got, want)
		}
	}
}

// TestScannersMatchByteLoops pins the word-at-a-time scanners, Hull and
// frame.IsZero, to byte loops on every alignment a word boundary can fall
// on: identical inputs of 0-17 bytes, one changed byte at each of the first
// 25 offsets and the last 16 of a block (and beside frame.IsZero's chunk
// boundary), and two changed bytes with 0-17 equal bytes between them. Each
// runs over a zero and a random base, with the change in a byte's low bit,
// its high bit and all of it.
func TestScannersMatchByteLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := func(n int, zero bool) []byte {
		b := make([]byte, n)
		if !zero {
			rng.Read(b)
		}
		return b
	}
	for _, zero := range []bool{true, false} {
		for n := 0; n <= 17; n++ {
			old := base(n, zero)
			checkScanners(t, fmt.Sprintf("identical, %d bytes", n), old, bytes.Clone(old))
		}
		for _, x := range []byte{0x01, 0x80, 0xFF} {
			for _, n := range []int{25, 4096, 32<<10 + 5} {
				var offs []int
				for i := 0; i < 25; i++ {
					offs = append(offs, i)
				}
				for i := n - 16; i < n; i++ {
					offs = append(offs, i)
				}
				for i := 16<<10 - 9; i <= 16<<10+9 && i < n; i++ {
					offs = append(offs, i)
				}
				old := base(n, zero)
				for _, i := range offs {
					new := bytes.Clone(old)
					new[i] ^= x
					checkScanners(t, fmt.Sprintf("byte %d of %d ^ %#x", i, n, x), old, new)
				}
			}
			for gap := 0; gap <= 17; gap++ {
				const n = 4096
				old := base(n, zero)
				for _, i := range []int{0, 3, 8, 13, n - 2 - gap} {
					new := bytes.Clone(old)
					new[i] ^= x
					new[i+1+gap] ^= x
					checkScanners(t, fmt.Sprintf("bytes %d and %d ^ %#x", i, i+1+gap, x), old, new)
				}
			}
		}
	}
}

// FuzzScanners checks Hull and frame.IsZero against byte loops on any pair
// of equal-length inputs (the longer one is cut to the shorter's length).
func FuzzScanners(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte("0123456789abcdefg"), []byte("0123456789abcdefG"))
	f.Add(make([]byte, 24), append(make([]byte, 23), 1))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0}, make([]byte, 9))
	f.Fuzz(func(t *testing.T, old, new []byte) {
		n := min(len(old), len(new))
		checkScanners(t, "fuzz", old[:n], new[:n])
	})
}
