package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// encoded returns n's page image on a page of size bytes.
func encoded(t testing.TB, n *node, size int) []byte {
	t.Helper()
	b := bytes.Repeat([]byte{0xDB}, size) // encode must clear what it does not write
	if got := n.encode(b); got > size {
		t.Fatalf("node of %d bytes does not fit a %d-byte page", got, size)
	}
	return b
}

// fullLeaf and fullInterior fill a page to the last entry that fits.
func fullLeaf(size int) *node {
	n := &node{leaf: true, next: 99}
	for i := 0; ; i++ {
		n.keys = append(n.keys, key(i))
		n.vals = append(n.vals, bytes.Repeat([]byte{byte(i)}, 100))
		if n.size() > size {
			n.keys, n.vals = n.keys[:i], n.vals[:i]
			return n
		}
	}
}

func fullInterior(size int) *node {
	n := &node{lsn: 7, children: []int64{2}}
	for i := 0; ; i++ {
		n.keys = append(n.keys, key(i))
		n.children = append(n.children, int64(i+3))
		if n.size() > size {
			n.keys, n.children = n.keys[:i], n.children[:i+1]
			return n
		}
	}
}

// decodeNode does not trust the page: counts and lengths that run past the
// buffer are ErrCorrupt naming the page, not a runtime panic.
func TestDecodeNodeRejectsHostilePages(t *testing.T) {
	const size = 512
	le := binary.LittleEndian
	leaf := encoded(t, fullLeaf(size), size)
	interior := encoded(t, fullInterior(size), size)
	mutate := func(page []byte, f func(b []byte)) []byte {
		b := append([]byte(nil), page...)
		f(b)
		return b
	}
	cases := map[string][]byte{
		"empty buffer":            {},
		"shorter than the header": leaf[:nodeHeader+4],
		"unknown kind":            mutate(leaf, func(b []byte) { b[0] = 9 }),
		"leaf count no page can hold": mutate(leaf, func(b []byte) {
			le.PutUint16(b[1:], 0xffff)
		}),
		"leaf count past its entries": mutate(leaf, func(b []byte) {
			le.PutUint16(b[1:], le.Uint16(b[1:])+40) // more than the zero tail can pass for
		}),
		"leaf key length past the page": mutate(leaf, func(b []byte) {
			le.PutUint16(b[nodeHeader+8:], 0xfff0)
		}),
		"leaf value length past the page": mutate(leaf, func(b []byte) {
			le.PutUint16(b[nodeHeader+8+2:], 0xfff0)
		}),
		"interior count no page can hold": mutate(interior, func(b []byte) {
			le.PutUint16(b[1:], 0xffff)
		}),
		"interior count past its entries": mutate(interior, func(b []byte) {
			le.PutUint16(b[1:], le.Uint16(b[1:])+40)
		}),
		"interior key length past the page": mutate(interior, func(b []byte) {
			le.PutUint16(b[nodeHeader+16:], 0xfff0)
		}),
		"interior header cut short": interior[:nodeHeader+12],
		"poisoned frame":            bytes.Repeat([]byte{0xDB}, size),
	}
	for name, page := range cases {
		n, err := decodeNode(17, page)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got (%v, %v), want ErrCorrupt", name, n, err)
		} else if !strings.Contains(err.Error(), "page 17") {
			t.Errorf("%s: the error must name the page: %v", name, err)
		}
	}
	for name, page := range map[string][]byte{"full leaf": leaf, "full interior": interior} {
		if _, err := decodeNode(17, page); err != nil {
			t.Errorf("%s: a valid page must decode: %v", name, err)
		}
	}
}

// A damaged page reaches the caller as ErrCorrupt through the public calls.
func TestCorruptLeafSurfacesThroughGet(t *testing.T) {
	tr := loadedTree(t, 200, false)
	c, err := tr.First()
	if err != nil {
		t.Fatal(err)
	}
	leafNo := c.n.pageNo
	page := make([]byte, tr.pageSize)
	if err := tr.st.ReadPage(leafNo, page); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(page[nodeHeader+8:], 0xfff0) // first key length
	if err := tr.st.WritePage(leafNo, page); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Get(key(0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get over a damaged leaf = %v, want ErrCorrupt", err)
	}
}

// FuzzDecodeNode: whatever the page holds, decodeNode returns a node or an
// error — it never panics and never reserves more than a small multiple of
// the page — and a node it accepts re-encodes to a page that decodes to the
// same node.
func FuzzDecodeNode(f *testing.F) {
	for _, size := range []int{512, 4096} {
		for _, n := range []*node{
			{leaf: true},
			{leaf: true, next: 5, keys: [][]byte{key(1)}, vals: [][]byte{[]byte("one")}},
			fullLeaf(size),
			{lsn: 1, children: []int64{2}},
			{lsn: 3, keys: [][]byte{key(9)}, children: []int64{2, 3}},
			fullInterior(size),
		} {
			f.Add(encoded(f, n, size))
		}
	}
	f.Add([]byte{pgLeaf, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0xDB}, 4096))
	f.Fuzz(func(t *testing.T, b []byte) {
		page := append([]byte(nil), b...)
		n, err := decodeNode(1, page)
		if !bytes.Equal(page, b) {
			t.Fatal("decodeNode wrote to the page")
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("a rejected page must be ErrCorrupt, got %v", err)
			}
			return
		}
		// Slice headers are 24 bytes against an entry's 4-byte minimum on the
		// page: both tables together stay within 16 pages' worth.
		if reserved := 24*(cap(n.keys)+cap(n.vals)) + 8*cap(n.children); reserved > 16*len(b) {
			t.Fatalf("reserved %d bytes of headers for a %d-byte page", reserved, len(b))
		}
		again := make([]byte, len(b))
		if size := n.encode(again); size > len(b) {
			t.Fatalf("a node decoded from %d bytes re-encodes to %d", len(b), size)
		}
		m, err := decodeNode(1, again)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !sameNode(n, m) {
			t.Fatalf("round trip changed the node:\n %+v\n %+v", n, m)
		}
	})
}

// sameNode compares decoded nodes, treating empty and nil tables alike.
func sameNode(a, b *node) bool {
	if a.pageNo != b.pageNo || a.lsn != b.lsn || a.leaf != b.leaf || a.next != b.next ||
		len(a.keys) != len(b.keys) || len(a.vals) != len(b.vals) || len(a.children) != len(b.children) {
		return false
	}
	for i := range a.keys {
		if !bytes.Equal(a.keys[i], b.keys[i]) {
			return false
		}
	}
	for i := range a.vals {
		if !bytes.Equal(a.vals[i], b.vals[i]) {
			return false
		}
	}
	return len(a.children) == 0 || reflect.DeepEqual(a.children, b.children)
}
