package core

import (
	"bytes"
	"testing"

	"repro/internal/frame"
)

// A transaction's before-images live in the manager's frames and go back when
// its undo is dropped — at the commit flush or at abort. One held past that
// point reads poison; the next transaction takes the same frames, so a steady
// stream of transactions allocates no before-image.
func TestBeforeImagesAreRecycled(t *testing.T) {
	r := newRig(t, Options{})
	f := r.mkProtected(t, "/db", pat(4*4096, 1))
	p := r.m.NewProcess()

	write := func(end func() error, found []byte) (held []byte) {
		t.Helper()
		if err := p.TxnBegin(); err != nil {
			t.Fatal(err)
		}
		for pg := int64(0); pg < 4; pg++ {
			if _, err := p.Write(f, pat(4096, 7), pg*4096); err != nil {
				t.Fatal(err)
			}
		}
		held = p.txn.undo[0].before
		if !bytes.Equal(held, found) {
			t.Fatal("the before-image must be the page as the transaction found it")
		}
		if err := end(); err != nil {
			t.Fatal(err)
		}
		return held
	}
	poison := bytes.Repeat([]byte{frame.Poison}, 4096)

	if held := write(p.TxnAbort, pat(4*4096, 1)[:4096]); !bytes.Equal(held, poison) {
		t.Fatalf("a before-image held past the abort must read poison, got % x", held[:8])
	}
	if free := r.m.frames.Free(); free != 4 {
		t.Fatalf("the abort left %d frames on the list, want the 4 before-images", free)
	}
	got := make([]byte, 4096)
	if _, err := p.Read(f, got, 0); err != nil || !bytes.Equal(got, pat(4*4096, 1)[:4096]) {
		t.Fatalf("the abort must have restored the page before its image was recycled: %v", err)
	}
	if held := write(p.TxnCommit, pat(4*4096, 1)[:4096]); !bytes.Equal(held, poison) {
		t.Fatalf("a before-image held past the commit flush must read poison, got % x", held[:8])
	}
	for i := 0; i < 50; i++ {
		write(p.TxnCommit, pat(4096, 7))
	}
	if free := r.m.frames.Free(); free != 4 {
		t.Fatalf("52 transactions of 4 pages left %d frames on the list, want 4", free)
	}
}

// The scratch image a batch flush logs for a page a running transaction has
// since written comes from the same list and is back on it when the flush
// returns.
func TestCommittedImageScratchIsRecycled(t *testing.T) {
	r := newRig(t, Options{GroupCommit: 100})
	f := r.mkProtected(t, "/db", pat(8192, 1))
	runProcs(r,
		func() { commitOne(t, r, f, pat(100, 2), 0) }, // T1 pre-commits page 0 and sleeps
		func() {
			later(r)
			p := r.m.NewProcess()
			p.TxnBegin()
			if _, err := p.Write(f, pat(300, 9), 50); err != nil { // T2 writes page 0 over it
				t.Error(err)
				return
			}
			out := r.m.frames.Free()
			if err := r.m.Flush(); err != nil { // logs T1's image of page 0 from scratch
				t.Error(err)
			}
			// T1's before-image and the scratch image are both back; T2's
			// before-image is still out.
			if got := r.m.frames.Free(); got != out+2 {
				t.Errorf("the flush left %d frames on the list, want %d", got, out+2)
			}
			if err := p.TxnAbort(); err != nil {
				t.Error(err)
			}
		})
	if free := r.m.frames.Free(); free != 3 {
		t.Fatalf("%d frames on the list once every transaction is done, want 3", free)
	}
}
