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
