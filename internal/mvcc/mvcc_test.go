package mvcc

import (
	"bytes"
	"testing"
)

func nop() {}

// TestHorizonsPinUnpinOldest: pins are refcounted per horizon, the oldest
// one is the pruning watermark, and the seed runs at the first pin only.
func TestHorizonsPinUnpinOldest(t *testing.T) {
	v := New(nil)
	if v.Active() {
		t.Fatal("empty store reports active")
	}
	if _, ok := v.oldest(); ok {
		t.Fatal("empty store reports an oldest horizon")
	}
	seeds := 0
	seed := func() { seeds++ }
	s30 := v.Begin(30, seed)
	s10a := v.Begin(10, seed)
	s10b := v.Begin(10, seed)
	s20 := v.Begin(20, seed)
	if seeds != 1 {
		t.Fatalf("four pins seeded %d times, want once", seeds)
	}
	if h, ok := v.oldest(); !ok || h != 10 {
		t.Fatalf("oldest = %d, %v; want 10, true", h, ok)
	}
	s10a.Close()
	if h, _ := v.oldest(); h != 10 {
		t.Fatalf("oldest after one of two closes = %d, want 10", h)
	}
	s10b.Close()
	if h, _ := v.oldest(); h != 20 {
		t.Fatalf("oldest = %d, want 20", h)
	}
	s20.Close()
	s30.Close()
	if v.Active() {
		t.Fatal("store with every snapshot closed reports active")
	}
	v.Begin(40, seed).Close()
	if seeds != 2 {
		t.Fatalf("a first pin after the last close seeded %d times in all, want 2", seeds)
	}
}

// TestSnapshotCloseIsIdempotent: a second Close releases nothing, so it
// cannot prune versions another snapshot at the same horizon still reads.
func TestSnapshotCloseIsIdempotent(t *testing.T) {
	v := New(nil)
	a := v.Begin(5, nop)
	b := v.Begin(5, nop)
	id := PageID{File: 1, Block: 1}
	v.Record(id, 1, 0, page(4, 'a'))
	v.Commit(1, 10)
	if a.Err() != nil {
		t.Fatalf("open snapshot: Err = %v", a.Err())
	}
	if !a.Close() || a.Close() {
		t.Fatal("Close reports closing other than exactly once")
	}
	if a.Err() != ErrClosed {
		t.Fatalf("closed snapshot: Err = %v, want ErrClosed", a.Err())
	}
	if !v.Active() || v.Bytes() != 4 {
		t.Fatalf("after a double close: active %v, %d bytes; want true, 4", v.Active(), v.Bytes())
	}
	p := page(4, 'b')
	b.Rewind(id, p)
	if !bytes.Equal(p, page(4, 'a')) {
		t.Fatalf("the other snapshot rewinds to %q, want all-a", p)
	}
	b.Close()
}

// page builds a page whose every byte is v.
func page(n int, v byte) []byte {
	return bytes.Repeat([]byte{v}, n)
}

func TestDeltaMapReconstruction(t *testing.T) {
	v := New(nil)
	s5, s15, s25 := v.Begin(5, nop), v.Begin(15, nop), v.Begin(25, nop)
	id := PageID{File: 7, Block: 2}

	// Txn 1 rewrites bytes [0,4) from 'a' to 'b', commits at horizon 10.
	v.Record(id, 1, 0, page(4, 'a'))
	v.Commit(1, 10)
	// Txn 2 rewrites bytes [2,6) from current to 'c', commits at 20.
	cur := append(page(4, 'b'), 'a', 'a', 'a', 'a')
	v.Record(id, 2, 2, append([]byte(nil), cur[2:6]...))
	v.Commit(2, 20)
	// Txn 3 writes bytes [0,2), still in flight.
	v.Record(id, 3, 0, append([]byte(nil), 'b', 'b'))

	// Current page content after all three writes.
	p := []byte{'x', 'x', 'c', 'c', 'c', 'c', 'a', 'a'}

	// Horizon 25: txn 3 uncommitted → only its delta unwinds.
	got := append([]byte(nil), p...)
	s25.Rewind(id, got)
	if want := []byte{'b', 'b', 'c', 'c', 'c', 'c', 'a', 'a'}; !bytes.Equal(got, want) {
		t.Fatalf("h=25: got %q, want %q", got, want)
	}
	// Horizon 15: txn 2 (committed at 20) unwinds too.
	got = append([]byte(nil), p...)
	s15.Rewind(id, got)
	if want := []byte{'b', 'b', 'b', 'b', 'a', 'a', 'a', 'a'}; !bytes.Equal(got, want) {
		t.Fatalf("h=15: got %q, want %q", got, want)
	}
	// Horizon 5: everything unwinds back to the original page.
	got = append([]byte(nil), p...)
	s5.Rewind(id, got)
	if want := page(8, 'a'); !bytes.Equal(got, want) {
		t.Fatalf("h=5: got %q, want %q", got, want)
	}
}

// TestDeltaMapAbortAndPrune: a commit keeps its deltas iff a pin is older
// than its horizon, an abort drops them, closing the oldest pin prunes what
// the next one sees, and the last close empties the store.
func TestDeltaMapAbortAndPrune(t *testing.T) {
	v := New(nil)
	id := PageID{File: 1, Block: 1}
	s10 := v.Begin(10, nop)

	// No pin older than horizon 10: nothing can need the delta.
	v.Record(id, 1, 0, page(4, 'a'))
	v.Commit(1, 10)
	if v.Bytes() != 0 {
		t.Fatalf("Bytes after a commit no pin predates = %d, want 0", v.Bytes())
	}
	// The pin at 10 predates horizon 20: kept.
	v.Record(id, 2, 0, page(4, 'a'))
	v.Commit(2, 20)
	v.Record(id, 3, 0, page(4, 'b'))
	v.Abort(3) // abort restores bytes; the delta must vanish
	if v.Bytes() != 4 {
		t.Fatalf("Bytes = %d, want 4", v.Bytes())
	}
	p := page(4, 'b')
	s10.Rewind(id, p)
	if !bytes.Equal(p, page(4, 'a')) {
		t.Fatalf("after abort: got %q, want all-a", p)
	}

	// Closing the pin at 10 leaves the one at 30, which sees txn 2.
	s30 := v.Begin(30, nop)
	s10.Close()
	if v.Bytes() != 0 {
		t.Fatalf("Bytes after pruning to 30 = %d, want 0", v.Bytes())
	}
	v.Record(id, 4, 0, page(4, 'd'))
	s30.Close()
	if v.Bytes() != 0 || v.Active() {
		t.Fatalf("after the last close: %d bytes, active %v; want 0, false", v.Bytes(), v.Active())
	}
}
