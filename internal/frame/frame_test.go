package frame

import (
	"bytes"
	"testing"
)

func TestTakeGiveIsLIFOAndPoisons(t *testing.T) {
	l := NewList(64)
	a, b := l.Take(), l.Take()
	if len(a) != 64 || len(b) != 64 || &a[0] == &b[0] {
		t.Fatal("Take must hand out distinct frames of the list's size")
	}
	copy(a, "page a")
	copy(b, "page b")
	l.Give(a)
	l.Give(b)
	if l.Free() != 2 {
		t.Fatalf("Free = %d, want 2", l.Free())
	}
	// A reference kept across Give — the rule broken — reads poison.
	if !bytes.Equal(a, bytes.Repeat([]byte{Poison}, 64)) {
		t.Fatalf("a given frame must read %#x throughout, got % x", Poison, a[:8])
	}
	if got := l.Take(); &got[0] != &b[0] {
		t.Fatal("Take must return the frame given last")
	}
	if got := l.Take(); &got[0] != &a[0] {
		t.Fatal("Take must return the frames in reverse order of Give")
	}
	if l.Free() != 0 {
		t.Fatalf("Free = %d, want 0", l.Free())
	}
}

// A frame larger than the poison source is poisoned to its last byte.
func TestGivePoisonsLargeFrames(t *testing.T) {
	const size = 3*4096 + 17
	l := NewList(size)
	f := l.Take()
	l.Give(f)
	if !bytes.Equal(f, bytes.Repeat([]byte{Poison}, size)) {
		t.Fatal("a large frame must be poisoned throughout")
	}
}

func TestGiveRejectsForeignBuffers(t *testing.T) {
	l := NewList(64)
	defer func() {
		if recover() == nil {
			t.Fatal("Give of a buffer of another size must panic: it is a bug, not an input")
		}
	}()
	l.Give(make([]byte, 32))
}

func TestSteadyStateAllocatesNothing(t *testing.T) {
	l := NewList(4096)
	l.Give(l.Take()) // the high-water mark: one frame
	if n := testing.AllocsPerRun(1000, func() { l.Give(l.Take()) }); n != 0 {
		t.Fatalf("Take+Give at the high-water mark allocates %v times, want 0", n)
	}
}

func TestZero(t *testing.T) {
	z := Zero(4096)
	if len(z) != 4096 || cap(z) != 4096 {
		t.Fatalf("Zero(4096) has len %d cap %d", len(z), cap(z))
	}
	if !bytes.Equal(z, make([]byte, 4096)) {
		t.Fatal("Zero must be all zero")
	}
	if n := testing.AllocsPerRun(100, func() { z = Zero(4096) }); n != 0 {
		t.Fatalf("Zero allocates %v times, want 0", n)
	}
	if big := Zero(1 << 20); len(big) != 1<<20 || !bytes.Equal(big[:64], make([]byte, 64)) {
		t.Fatal("a page larger than the shared buffer must still be zero and whole")
	}
}
