package ufs

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/buffer"
	"repro/internal/frame"
)

func TestStage(t *testing.T) {
	const bs = 16
	s := NewStage(3, bs)
	id := func(f, b int64) buffer.BlockID { return buffer.BlockID{File: buffer.FileID(f), Block: b} }
	block := func(v byte) []byte { return bytes.Repeat([]byte{v}, bs) }

	// Park copies, replaces an older version in place, and marks the table
	// full only once a Park leaves bound blocks parked.
	s.Park(id(2, 7), block(1), true)
	s.Park(id(1, 9), block(2), false)
	s.Park(id(2, 7), block(3), false)
	if s.Len() != 2 || s.TakeFull() {
		t.Fatalf("two blocks parked: Len %d, full must not be set", s.Len())
	}
	copy(s.Frame(id(2, 1), true), block(4)) // a relocation: never marks full
	if s.Len() != 3 || s.TakeFull() {
		t.Fatalf("Frame parked a third block: Len %d, full must not be set", s.Len())
	}
	s.Park(id(1, 3), block(5), true)
	if !s.TakeFull() || s.TakeFull() {
		t.Fatal("a Park reaching the bound must mark the table full, once")
	}
	if got, ok := s.Lookup(id(2, 7)); !ok || !bytes.Equal(got, block(3)) {
		t.Fatalf("Lookup of a re-parked block = %v, %v; want the newer bytes", got, ok)
	}

	// The durable mark is the latest parking's, and goes with the frame.
	if s.Durable(id(2, 7)) || !s.Durable(id(2, 1)) || !s.Durable(id(1, 3)) || s.Durable(id(1, 9)) {
		t.Fatal("a block's durable mark must be what its last Park or Frame said")
	}
	copy(s.Frame(id(1, 3), false), block(7))
	if s.Durable(id(1, 3)) {
		t.Fatal("re-filling a durable frame as undurable must clear its mark")
	}

	// Blocks lists in (file, block) order, filtered by file.
	want := []buffer.BlockID{id(1, 3), id(1, 9), id(2, 1), id(2, 7)}
	if got := s.Blocks(nil); !slices.Equal(got, want) {
		t.Fatalf("Blocks(nil) = %v, want %v", got, want)
	}
	two := s.Blocks(func(f buffer.FileID) bool { return f == 2 })
	if !slices.Equal(two, want[2:]) {
		t.Fatalf("Blocks(file 2) = %v, want %v", two, want[2:])
	}

	// Unpark while ranging over the list; a dropped frame is poisoned and
	// handed out again.
	held, _ := s.Lookup(id(2, 1))
	for _, b := range two {
		s.Unpark(b)
	}
	s.Unpark(id(9, 9)) // not parked: nothing happens
	if s.Len() != 2 || len(s.Blocks(func(f buffer.FileID) bool { return f == 2 })) != 0 {
		t.Fatalf("after unparking file 2: Len %d", s.Len())
	}
	if !bytes.Equal(held, bytes.Repeat([]byte{frame.Poison}, bs)) {
		t.Fatal("an unparked block's frame must read poison")
	}
	if _, ok := s.Lookup(id(2, 7)); ok {
		t.Fatal("an unparked block is still found")
	}
	if copy(s.Frame(id(2, 1), false), block(8)); s.Durable(id(2, 1)) {
		t.Fatal("a block parked again after Unpark kept its old durable mark")
	}
	s.Unpark(id(2, 1))

	// UnparkFile drops one file's blocks and leaves the others.
	s.Park(id(3, 0), block(6), false)
	s.Park(id(1, 3), block(9), true)
	s.UnparkFile(1)
	s.UnparkFile(9) // no blocks parked: nothing happens
	if got := s.Blocks(nil); s.Len() != 1 || !slices.Equal(got, []buffer.BlockID{id(3, 0)}) {
		t.Fatalf("after UnparkFile(1): Len %d, Blocks %v; want only block 0 of file 3", s.Len(), got)
	}
	if s.Durable(id(1, 3)) {
		t.Fatal("UnparkFile left a dropped block's durable mark")
	}
}

// A flush keeps the blocks it wrote: a kept block is hidden from every writer
// (Lookup, Blocks, Durable), read only by ReadKept, and gone once it is
// parked again, unparked, freed with its file, or reclaimed — oldest first —
// by a park that finds parked and kept blocks filling the bound.
func TestStageKept(t *testing.T) {
	const bs, bound = 16, 4
	id := func(f, b int64) buffer.BlockID { return buffer.BlockID{File: buffer.FileID(f), Block: b} }
	block := func(v byte) []byte { return bytes.Repeat([]byte{v}, bs) }
	// keep parks each block with its own bytes, then keeps them in order.
	keep := func(s *Stage, ids ...buffer.BlockID) {
		for i, b := range ids {
			s.Park(b, block(byte(10+i)), true)
		}
		s.TakeFull()
		for _, b := range ids {
			s.Keep(b)
		}
	}
	isKept := func(s *Stage, b buffer.BlockID) bool {
		n := s.Stats().KeptHits
		ok := s.ReadKept(b, make([]byte, bs))
		if ok != (s.Stats().KeptHits == n+1) {
			t.Fatalf("ReadKept of %v reported %v but counted %d hits", b, ok, s.Stats().KeptHits-n)
		}
		return ok
	}
	cases := []struct {
		name string
		run  func(t *testing.T, s *Stage)
	}{
		{"hidden from writers, read by fetches", func(t *testing.T, s *Stage) {
			keep(s, id(1, 0), id(1, 1))
			s.Park(id(1, 2), block(7), false)
			if _, ok := s.Lookup(id(1, 0)); ok || s.Durable(id(1, 0)) {
				t.Fatal("a kept block must be invisible to Lookup and carry no durable mark")
			}
			if got := s.Blocks(nil); !slices.Equal(got, []buffer.BlockID{id(1, 2)}) {
				t.Fatalf("Blocks = %v, want only the parked block", got)
			}
			if s.ReadParked(id(1, 0), make([]byte, bs)) || s.ReadKept(id(1, 2), make([]byte, bs)) {
				t.Fatal("ReadParked must not read a kept block, nor ReadKept a parked one")
			}
			got := make([]byte, bs)
			if !s.ReadKept(id(1, 1), got) || !bytes.Equal(got, block(11)) {
				t.Fatalf("ReadKept = % x, want the bytes the block was parked with", got)
			}
			if s.Len() != 1 || s.kept.n != 2 {
				t.Fatalf("Len %d, KeptLen %d; want 1 parked, 2 kept", s.Len(), s.kept.n)
			}
			if st := s.Stats(); st.KeptHits != 1 || st.ParkedHits != 0 {
				t.Fatalf("stats %+v, want one kept hit", st)
			}
		}},
		{"parked again in its own frame", func(t *testing.T, s *Stage) {
			keep(s, id(1, 0))
			kept := make([]byte, bs)
			s.ReadKept(id(1, 0), kept)
			s.Park(id(1, 0), block(8), true)
			if got, ok := s.Lookup(id(1, 0)); !ok || !bytes.Equal(got, block(8)) || !s.Durable(id(1, 0)) {
				t.Fatal("a re-parked block must be parked with its new bytes and mark")
			}
			if isKept(s, id(1, 0)) || s.Len() != 1 || s.kept.n != 0 {
				t.Fatalf("a re-parked block is still kept: Len %d, KeptLen %d", s.Len(), s.kept.n)
			}
			s.Keep(id(1, 0))
			s.Keep(id(1, 0)) // already kept: nothing happens
			s.Keep(id(9, 9)) // not staged: nothing happens
			if s.Len() != 0 || s.kept.n != 1 || !isKept(s, id(1, 0)) {
				t.Fatalf("Len %d, KeptLen %d; want the block kept once", s.Len(), s.kept.n)
			}
		}},
		{"reclaimed oldest first", func(t *testing.T, s *Stage) {
			keep(s, id(2, 5), id(1, 3), id(1, 4))
			isKept(s, id(1, 3)) // read: its reclaim is not counted
			s.Park(id(3, 0), block(1), false)
			if s.kept.n != 3 || s.Stats().KeptReclaimed != 0 {
				t.Fatal("a park with a frame to spare must reclaim nothing")
			}
			s.Park(id(3, 1), block(2), false)
			if isKept(s, id(2, 5)) || !isKept(s, id(1, 3)) || s.Stats().KeptReclaimed != 1 {
				t.Fatalf("the first park past the bound must reclaim the oldest kept block, counted unread: %+v", s.Stats())
			}
			s.Park(id(3, 2), block(3), false)
			if isKept(s, id(1, 3)) || !isKept(s, id(1, 4)) || s.Stats().KeptReclaimed != 1 {
				t.Fatalf("the next must reclaim the next oldest, read, so not counted: %+v", s.Stats())
			}
			if got, _ := s.Lookup(id(3, 2)); !bytes.Equal(got, block(3)) {
				t.Fatal("a park into a reclaimed frame must hold its own bytes")
			}
		}},
		{"unparked, and freed with its file", func(t *testing.T, s *Stage) {
			keep(s, id(1, 0), id(1, 1), id(2, 0))
			s.Park(id(1, 2), block(5), false)
			s.Unpark(id(1, 0))
			if isKept(s, id(1, 0)) || s.kept.n != 2 {
				t.Fatal("Unpark must drop a kept block")
			}
			s.UnparkFile(1)
			if isKept(s, id(1, 1)) || s.Len() != 0 || s.kept.n != 1 || !isKept(s, id(2, 0)) {
				t.Fatalf("UnparkFile must drop the file's kept and parked blocks and leave the others: Len %d, KeptLen %d", s.Len(), s.kept.n)
			}
			if s.Stats().KeptReclaimed != 0 {
				t.Fatal("a dropped block is not a reclaimed one")
			}
		}},
		{"parked and kept never exceed the bound", func(t *testing.T, s *Stage) {
			// A random walk of parks, keeps and unparks over few blocks.
			rng := uint64(1)
			next := func(n uint64) uint64 {
				rng = rng*6364136223846793005 + 1442695040888963407
				return (rng >> 33) % n
			}
			for range 2000 {
				b := id(int64(next(2)), int64(next(5)))
				switch next(4) {
				case 0, 1:
					s.Park(b, block(1), false)
				case 2:
					s.Keep(b)
				default:
					s.Unpark(b)
				}
				s.TakeFull()
				if s.kept.n > 0 && s.Len()+s.kept.n > bound {
					t.Fatalf("%d parked + %d kept blocks exceed the bound of %d", s.Len(), s.kept.n, bound)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, NewStage(bound, bs)) })
	}
}
