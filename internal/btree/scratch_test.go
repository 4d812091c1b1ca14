package btree

import (
	"bytes"
	"testing"
)

// tallTree returns a tree of n records (key(i) → key(i)) on 512-byte pages,
// inserted out of order so that it is at least three levels tall, on a handle
// that borrows from a Scratch of the relation's.
func tallTree(t *testing.T, n int) *Tree {
	t.Helper()
	grown := newTree(t)
	for i := 0; i < n; i++ {
		if err := grown.Put(key(i*7919%n), key(i*7919%n)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if grown.Height() < 3 {
		t.Fatalf("height = %d, want >= 3 for a descent through interior levels", grown.Height())
	}
	tr, err := OpenWith(grown.st, new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// Reads after splits see the split tree, through the handle that split it and
// through a second handle on the same Scratch.
func TestSharedScratchReadsAfterSplits(t *testing.T) {
	const n = 2000
	tr := tallTree(t, n)
	for i := 0; i < n; i += 13 {
		if _, err := tr.Get(key(i)); err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
	}
	// Inserts beyond the loaded range split leaves and rewrite interior pages.
	for i := n; i < 2*n; i++ {
		if err := tr.Put(key(i), key(i)); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	for i := 0; i < 2*n; i += 7 {
		v, err := tr.Get(key(i))
		if err != nil || !bytes.Equal(v, key(i)) {
			t.Fatalf("Get(%d) after splits = %x, %v", i, v, err)
		}
	}
	if cnt, err := tr.Check(); err != nil || cnt != 2*n {
		t.Fatalf("Check = %d, %v; want %d", cnt, err, 2*n)
	}
	tr2, err := OpenWith(tr.st, tr.s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*n; i += 101 {
		if v, err := tr2.Get(key(i)); err != nil || !bytes.Equal(v, key(i)) {
			t.Fatalf("second handle Get(%d) = %x, %v", i, v, err)
		}
	}
}

// Once a handle is warm, every read decodes into recycled shells and frames:
// Get, GetForUpdate, a Put that replaces a value and a cursor crossing leaves
// allocate nothing, on a handle with a Scratch of its own and on one sharing
// the relation's. On fresh handles opened from one shared Scratch, as TPC-B's
// balance update opens one per transaction, the handle is the one allocation.
func TestWarmHandleAllocatesNothing(t *testing.T) {
	const n = 2000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = key(i)
	}
	val := make([]byte, 8)
	shared := tallTree(t, n)
	own, err := Open(shared.st)
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]*Tree{"shared": shared, "own": own} {
		i := 0
		next := func() []byte { i = (i + 7919) % n; return keys[i] }
		ops := map[string]func(){
			"Get": func() {
				if _, err := tr.Get(next()); err != nil {
					t.Fatal(err)
				}
			},
			"GetForUpdate": func() {
				if _, err := tr.GetForUpdate(next()); err != nil {
					t.Fatal(err)
				}
			},
			"Put": func() { // same length: a replace never splits
				k := next()
				copy(val, k)
				if err := tr.Put(k, val); err != nil {
					t.Fatal(err)
				}
			},
		}
		for op, f := range ops {
			f()
			if a := testing.AllocsPerRun(200, f); a != 0 {
				t.Errorf("%s: %s allocates %.1f objects per call on a warm handle", name, op, a)
			}
		}
		c, err := tr.First()
		if err != nil {
			t.Fatal(err)
		}
		cross := func() {
			leaf := c.n.pageNo
			for c.n.pageNo == leaf {
				if !c.Next() {
					t.Fatalf("%s: the cursor ran out of leaves", name)
				}
			}
		}
		cross()
		if a := testing.AllocsPerRun(40, cross); a != 0 {
			t.Errorf("%s: a cursor crossing a leaf allocates %.1f objects", name, a)
		}
	}

	st, s := shared.st, shared.s
	shared.Close()
	update := func() {
		h, err := OpenWith(st, s)
		if err != nil {
			t.Fatal(err)
		}
		k := keys[1234]
		v, err := h.GetForUpdate(k)
		if err != nil {
			t.Fatal(err)
		}
		copy(val, v)
		if err := h.Put(k, val); err != nil {
			t.Fatal(err)
		}
		h.Close()
	}
	update()
	if a := testing.AllocsPerRun(200, update); a != 1 {
		t.Errorf("open, GetForUpdate, Put and Close on a shared Scratch allocate %.1f objects, want the handle alone", a)
	}
}

// Two handles on one Scratch, interleaved op by op as two procs yielding on a
// lock wait are: neither's operation gives back what the other still holds,
// so each one's last Get value and cursor entry read correctly.
func TestInterleavedHandlesShareOneScratch(t *testing.T) {
	for _, loaded := range []*Tree{loadedTree(t, 2000, true), tallTree(t, 2000)} {
		a, err := OpenWith(loaded.st, loaded.s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := OpenWith(loaded.st, loaded.s)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i += 7 {
			j := 1999 - i
			va, err := a.Get(key(i))
			if err != nil {
				t.Fatal(err)
			}
			vb, err := b.GetForUpdate(key(j))
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Put(key(j), append([]byte(nil), vb...)); err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(va, key(i)) {
				t.Fatalf("a's Get(%d) value reads %x after b's Put", i, va[:8])
			}
		}
		ca, err := a.First()
		if err != nil {
			t.Fatal(err)
		}
		cb, err := b.First()
		if err != nil {
			t.Fatal(err)
		}
		// b runs two entries for each of a's, so the two cross leaves at
		// different times.
		ia, ib := 0, 0
		for ca.Next() {
			for step := 0; step < 2 && cb.Next(); step++ {
				if !bytes.Equal(cb.Key(), key(ib)) || !bytes.HasPrefix(cb.Value(), key(ib)) {
					t.Fatalf("b's entry %d reads %x", ib, cb.Key())
				}
				ib++
			}
			if !bytes.Equal(ca.Key(), key(ia)) || !bytes.HasPrefix(ca.Value(), key(ia)) {
				t.Fatalf("a's entry %d reads %x after b's Next", ia, ca.Key())
			}
			ia++
		}
		if ca.Err() != nil || cb.Err() != nil || ia != 2000 || ib != 2000 {
			t.Fatalf("the scans saw %d and %d entries: %v, %v", ia, ib, ca.Err(), cb.Err())
		}
	}
}
