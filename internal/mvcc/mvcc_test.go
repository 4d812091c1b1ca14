package mvcc

import (
	"bytes"
	"testing"
)

func TestHorizonsPinUnpinOldest(t *testing.T) {
	h := NewHorizons()
	if h.Active() {
		t.Fatal("empty set reports active")
	}
	if _, ok := h.Oldest(); ok {
		t.Fatal("empty set reports an oldest horizon")
	}
	h.Pin(30)
	h.Pin(10)
	h.Pin(10)
	h.Pin(20)
	if v, ok := h.Oldest(); !ok || v != 10 {
		t.Fatalf("Oldest = %d, %v; want 10, true", v, ok)
	}
	h.Unpin(10)
	if v, _ := h.Oldest(); v != 10 {
		t.Fatalf("Oldest after one of two unpins = %d, want 10", v)
	}
	h.Unpin(10)
	if v, _ := h.Oldest(); v != 20 {
		t.Fatalf("Oldest = %d, want 20", v)
	}
	h.Unpin(20)
	h.Unpin(30)
	if h.Active() {
		t.Fatal("fully unpinned set reports active")
	}
}

func TestHorizonsUnbalancedUnpinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Unpin of unpinned horizon did not panic")
		}
	}()
	NewHorizons().Unpin(7)
}

// page builds a page whose every byte is v.
func page(n int, v byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = v
	}
	return p
}

func TestDeltaMapReconstruction(t *testing.T) {
	d := NewDeltaMap()
	id := PageID{File: 7, Block: 2}

	// Txn 1 rewrites bytes [0,4) from 'a' to 'b', commits at LSN 10.
	d.Record(id, 1, 0, page(4, 'a'))
	d.Commit(1, 10, true)
	// Txn 2 rewrites bytes [2,6) from current to 'c', commits at LSN 20.
	cur := append(page(4, 'b'), 'a', 'a', 'a', 'a')
	d.Record(id, 2, 2, append([]byte(nil), cur[2:6]...))
	d.Commit(2, 20, true)
	// Txn 3 writes bytes [0,2), still in flight.
	d.Record(id, 3, 0, append([]byte(nil), 'b', 'b'))

	// Current page content after all three writes.
	p := []byte{'x', 'x', 'c', 'c', 'c', 'c', 'a', 'a'}

	// Horizon 25: txn 3 uncommitted → only its delta unwinds.
	got := append([]byte(nil), p...)
	d.ApplyBefore(id, 25, got)
	if want := []byte{'b', 'b', 'c', 'c', 'c', 'c', 'a', 'a'}; !bytes.Equal(got, want) {
		t.Fatalf("h=25: got %q, want %q", got, want)
	}
	// Horizon 15: txn 2 (LSN 20) unwinds too.
	got = append([]byte(nil), p...)
	d.ApplyBefore(id, 15, got)
	if want := []byte{'b', 'b', 'b', 'b', 'a', 'a', 'a', 'a'}; !bytes.Equal(got, want) {
		t.Fatalf("h=15: got %q, want %q", got, want)
	}
	// Horizon 5: everything unwinds back to the original page.
	got = append([]byte(nil), p...)
	d.ApplyBefore(id, 5, got)
	if want := []byte{'a', 'a', 'a', 'a', 'a', 'a', 'a', 'a'}; !bytes.Equal(got, want) {
		t.Fatalf("h=5: got %q, want %q", got, want)
	}
}

func TestDeltaMapAbortAndPrune(t *testing.T) {
	d := NewDeltaMap()
	id := PageID{File: 1, Block: 1}

	d.Record(id, 1, 0, page(4, 'a'))
	d.Commit(1, 10, true)
	d.Record(id, 2, 0, page(4, 'b'))
	d.Abort(2) // abort restores bytes; the delta must vanish

	p := page(4, 'b')
	d.ApplyBefore(id, 5, p)
	if !bytes.Equal(p, page(4, 'a')) {
		t.Fatalf("after abort: got %q, want all-a", p)
	}
	if d.Bytes() != 4 {
		t.Fatalf("Bytes = %d, want 4", d.Bytes())
	}

	// Commit with keep=false (no snapshot older than the commit) drops.
	d.Record(id, 3, 0, page(4, 'c'))
	d.Commit(3, 30, false)
	if d.Bytes() != 4 {
		t.Fatalf("Bytes after keep=false commit = %d, want 4", d.Bytes())
	}

	// Watermark at 10 retires txn 1's delta; inactive clears everything.
	d.Prune(10, true)
	if d.Bytes() != 0 {
		t.Fatalf("Bytes after prune = %d, want 0", d.Bytes())
	}
	d.Record(id, 4, 0, page(4, 'd'))
	d.Prune(0, false)
	if d.Bytes() != 0 {
		t.Fatalf("Bytes after inactive prune = %d, want 0", d.Bytes())
	}
}
