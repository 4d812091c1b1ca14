// Package btree implements a B+-tree access method over a pagestore.Store,
// in the spirit of the 4.4BSD db(3) btree routines the paper's record layer
// uses [2]. Keys and values are arbitrary byte strings; keys are kept in
// lexicographic order, so fixed-width big-endian integer keys scan "in key
// order" exactly as the paper's SCAN test requires. Leaves are chained for
// range scans.
//
// Concurrency: the tree itself is single-writer; when run under LIBTP the
// page store acquires two-phase page locks on every access, which
// approximates the high-concurrency B-tree locking of [7] at page
// granularity (the paper's own implementation locked pages too, §3).
//
// Validity of returned bytes: as in db(3), what Get, GetForUpdate and a
// Cursor's Key and Value return is valid only until the next call on the same
// Tree handle (a Cursor's Next that crosses to the next leaf included). The
// bytes alias the page frame the read decoded from, and the handle recycles
// its frames at its next operation: a caller that needs a value longer copies
// it first. A value kept across the next call reads frame.Poison (0xDB)
// bytes, or another page's.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/pagestore"
)

// Errors.
var (
	ErrNotFound = errors.New("btree: key not found")
	ErrTooLarge = errors.New("btree: entry exceeds page capacity")
	ErrCorrupt  = errors.New("btree: corrupt page")
)

const (
	// "BTR2": a "BTR1" tree's interior pages carry an LSN word this layout
	// does not, so Open refuses one rather than misread it.
	metaMagic = 0x42545232

	pgLeaf     = 1
	pgInternal = 2
)

// Tree is a B+-tree.
type Tree struct {
	st       pagestore.Store
	pageSize int
	root     int64
	height   int
	count    int64
	// s lends the handle its page frames and node shells: the relation's
	// Scratch, which outlives the handle, or one of the handle's own.
	s *Scratch
	// borrowed is what the current operation took: the frames its reads
	// decoded nodes from, with the shells decoded into (the nodes, and the
	// keys and values handed to the caller, alias the frames), and its write
	// scratch. Only the handle gives them back: write scratch as soon as the
	// store has copied it, the rest at the start of the next operation or at
	// Close. held backs it, so that a fresh handle's operations take nothing
	// from the heap for the list.
	borrowed []loan
	held     [8]loan
}

// loan is one thing an operation borrowed: a page frame, and the node shell
// decoded from it when the frame was read.
type loan struct {
	page []byte
	n    *node
}

// newHandle returns a handle on st that borrows from s (a Scratch of its own
// if s is nil), with no tree state loaded yet.
//
//simlint:noalloc
func newHandle(st pagestore.Store, s *Scratch) *Tree {
	if s == nil {
		//simlint:alloc(a handle with no relation Scratch keeps its own)
		s = new(Scratch)
	}
	//simlint:alloc(one handle per open; its page frames and node shells are recycled)
	t := &Tree{st: st, pageSize: st.PageSize(), s: s}
	t.borrowed = t.held[:0]
	return t
}

// borrow takes a page frame for the current operation. Its contents are
// unspecified; it stays the operation's until releaseTo passes it.
//
//simlint:noalloc
func (t *Tree) borrow() []byte {
	f := t.s.frame(t.pageSize)
	//simlint:alloc(the borrowed list outgrows held only on a split cascade through a tall tree)
	t.borrowed = append(t.borrowed, loan{page: f})
	return f
}

// releaseTo gives back every frame and shell borrowed since the list was mark
// long. Nothing that aliases them may be used afterwards.
//
//simlint:noalloc
func (t *Tree) releaseTo(mark int) {
	out := t.borrowed[mark:]
	if len(out) == 0 {
		return
	}
	for _, l := range out {
		t.s.give(l)
	}
	clear(out)
	t.borrowed = t.borrowed[:mark]
}

// Close gives the handle's borrowed frames back, which invalidates whatever
// its last operation returned. It is optional — the frames of a handle that is
// dropped unclosed are collected with it — and the handle stays usable.
func (t *Tree) Close() { t.releaseTo(0) }

// meta page layout: magic u32, root i64, height u32, count i64.
func (t *Tree) writeMeta() error {
	mark := len(t.borrowed)
	defer t.releaseTo(mark) // the store copies the page
	b := t.borrow()
	clear(b)
	le := binary.LittleEndian
	le.PutUint32(b[0:], metaMagic)
	le.PutUint64(b[4:], uint64(t.root))
	le.PutUint32(b[12:], uint32(t.height))
	le.PutUint64(b[16:], uint64(t.count))
	return t.st.WritePage(0, b)
}

// Create initializes a new tree on an empty store.
func Create(st pagestore.Store) (*Tree, error) {
	t := newHandle(st, nil)
	if n, err := st.NumPages(); err != nil {
		return nil, err
	} else if n != 0 {
		return nil, fmt.Errorf("btree: store not empty (%d pages)", n)
	}
	if _, err := st.AllocPage(); err != nil { // page 0: meta
		return nil, err
	}
	rootNo, err := st.AllocPage()
	if err != nil {
		return nil, err
	}
	t.root = rootNo
	t.height = 1
	if err := t.writeNode(&node{pageNo: rootNo, leaf: true, next: 0}); err != nil {
		return nil, err
	}
	return t, t.writeMeta()
}

// Open loads an existing tree on a handle that keeps its own frames and
// shells; OpenWith shares the relation's.
func Open(st pagestore.Store) (*Tree, error) { return open(st, nil) }

// open loads the tree in st on a handle that borrows from s (nil for its own).
//
//simlint:noalloc
func open(st pagestore.Store, s *Scratch) (*Tree, error) {
	t := newHandle(st, s)
	defer t.releaseTo(0) // the fields below are copied out of the meta page
	b := t.borrow()
	//simlint:alloc(below this call is the page store's own budget: its locks, log records and cache misses)
	if err := st.ReadPage(0, b); err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	if le.Uint32(b[0:]) != metaMagic {
		//simlint:alloc(cold corruption report)
		return nil, fmt.Errorf("%w: bad meta magic", ErrCorrupt)
	}
	t.root = int64(le.Uint64(b[4:]))
	t.height = int(le.Uint32(b[12:]))
	t.count = int64(le.Uint64(b[16:]))
	return t, nil
}

// Count returns the number of stored records.
func (t *Tree) Count() int64 { return t.count }

// Height returns the tree height (1 = a single leaf).
func (t *Tree) Height() int { return t.height }

// node is the in-memory form of a tree page. A read decodes into a shell its
// handle borrowed, reusing the shell's tables, and the shell goes back with
// the frame it aliases.
type node struct {
	pageNo   int64
	leaf     bool
	next     int64 // leaf chain
	keys     [][]byte
	vals     [][]byte // leaf only
	children []int64  // internal only; len(children) == len(keys)+1
}

// Page layout:
//
//	kind  u8 (leaf/internal)
//	nkeys u16
//	leaf:     next i64, then nkeys × (klen u16, vlen u16, key, val)
//	internal: child0 i64, then nkeys × (klen u16, key, child i64)
//
// A page carries no version stamp: every read decodes the page it has just
// read, so nothing asks whether a decoded node is still current.
const nodeHeader = 1 + 2

// size returns the length of the node's page image.
func (n *node) size() int {
	size := nodeHeader + 8 // next i64 (leaf) or child0 i64 (internal)
	for i, k := range n.keys {
		if n.leaf {
			size += 2 + 2 + len(k) + len(n.vals[i])
		} else {
			size += 2 + len(k) + 8
		}
	}
	return size
}

// encode writes n's page image into b, which it clears first, and returns the
// image's length; a node too large for b is reported as a length above len(b)
// with b's contents unspecified.
func (n *node) encode(b []byte) int {
	if size := n.size(); size > len(b) {
		return size
	}
	clear(b)
	le := binary.LittleEndian
	if n.leaf {
		b[0] = pgLeaf
	} else {
		b[0] = pgInternal
	}
	le.PutUint16(b[1:], uint16(len(n.keys)))
	off := nodeHeader
	if n.leaf {
		le.PutUint64(b[off:], uint64(n.next))
		off += 8
		for i, k := range n.keys {
			le.PutUint16(b[off:], uint16(len(k)))
			le.PutUint16(b[off+2:], uint16(len(n.vals[i])))
			off += 4
			copy(b[off:], k)
			off += len(k)
			copy(b[off:], n.vals[i])
			off += len(n.vals[i])
		}
	} else {
		le.PutUint64(b[off:], uint64(n.children[0]))
		off += 8
		for i, k := range n.keys {
			le.PutUint16(b[off:], uint16(len(k)))
			off += 2
			copy(b[off:], k)
			off += len(k)
			le.PutUint64(b[off:], uint64(n.children[i+1]))
			off += 8
		}
	}
	return off
}

// writeNode encodes n into a scratch frame and writes it to its page.
//
//simlint:noalloc
func (t *Tree) writeNode(n *node) error {
	mark := len(t.borrowed)
	defer t.releaseTo(mark) // the store copies the page
	b := t.borrow()
	if n.encode(b) > t.pageSize {
		return ErrTooLarge
	}
	//simlint:alloc(below this call is the page store's own budget: its locks, log records and cache misses)
	return t.st.WritePage(n.pageNo, b)
}

// readNode reads pageNo plainly: every read-only descent's path.
//
//simlint:noalloc
func (t *Tree) readNode(pageNo int64) (*node, error) {
	return t.readNodeVia(pagestore.Store.ReadPage, pageNo)
}

// readNodeVia reads pageNo through read, which is either the store's ReadPage
// or pagestore.ReadForUpdate, into a borrowed frame and decodes it into a
// borrowed shell: the node aliases the frame, and both are the operation's
// until its loans are released.
//
//simlint:noalloc
func (t *Tree) readNodeVia(read func(pagestore.Store, int64, []byte) error, pageNo int64) (*node, error) {
	b := t.borrow()
	//simlint:alloc(below this call is the page store's own budget: its locks, log records and cache misses)
	if err := read(t.st, pageNo, b); err != nil {
		return nil, err
	}
	n := t.s.shell()
	t.borrowed[len(t.borrowed)-1].n = n
	//simlint:alloc(a shell's tables grow to the largest node it has held, once; a corrupt page's report)
	if err := decodeNode(n, pageNo, b); err != nil {
		return nil, err
	}
	return n, nil
}

// readForWrite reads the page at level (1 = the root) of a Put descent: the
// interior levels plainly, the leaf — the one page every Put rewrites —
// through pagestore.ReadForUpdate, so a locking store write-locks it at first
// touch instead of upgrading a shared lock at the write. A split reaching the
// parent still writes pages that were read plainly; splits are rare.
func (t *Tree) readForWrite(pageNo int64, level int) (*node, error) {
	if level < t.height {
		return t.readNode(pageNo)
	}
	return t.readNodeVia(pagestore.ReadForUpdate, pageNo)
}

// decodeNode fills n, whatever an earlier decode left in it, with the node on
// page bytes b, reusing the capacity of n's tables. The node aliases b: b must
// stay untouched for as long as the node is in use. The page is not trusted: a
// kind, a key count or an entry length that b cannot hold is ErrCorrupt naming
// the page, never an index past the buffer; n's contents are then unspecified.
func decodeNode(n *node, pageNo int64, b []byte) error {
	le := binary.LittleEndian
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: page %d: %s", ErrCorrupt, pageNo, fmt.Sprintf(format, args...))
	}
	if len(b) < nodeHeader+8 {
		return corrupt("%d bytes hold no node header", len(b))
	}
	*n = node{pageNo: pageNo, keys: n.keys[:0], vals: n.vals[:0], children: n.children[:0]}
	switch b[0] {
	case pgLeaf:
		n.leaf = true
	case pgInternal:
	default:
		return fmt.Errorf("%w: page %d kind %d", ErrCorrupt, pageNo, b[0])
	}
	nkeys := int(le.Uint16(b[1:]))
	off := nodeHeader
	// Keys and values alias the page buffer b: every mutation path replaces
	// the slice headers (inserts put the caller's slices in, splits copy
	// headers wholesale), never writes through them, so aliasing is safe and
	// saves a per-entry copy. The capped three-index subslices keep an append
	// from one entry clobbering the next.
	if n.leaf {
		n.next = int64(le.Uint64(b[off:]))
		off += 8
		if nkeys > (len(b)-off)/4 { // an entry is at least its two lengths
			return corrupt("leaf claims %d entries", nkeys)
		}
		n.keys = resize(n.keys, nkeys)
		n.vals = resize(n.vals, nkeys)
		for i := 0; i < nkeys; i++ {
			if off+4 > len(b) {
				return corrupt("entry %d starts past the page", i)
			}
			klen := int(le.Uint16(b[off:]))
			vlen := int(le.Uint16(b[off+2:]))
			off += 4
			if off+klen+vlen > len(b) {
				return corrupt("entry %d (key %d, value %d bytes) runs past the page", i, klen, vlen)
			}
			n.keys[i] = b[off : off+klen : off+klen]
			off += klen
			n.vals[i] = b[off : off+vlen : off+vlen]
			off += vlen
		}
	} else {
		if nkeys > (len(b)-off-8)/10 { // an entry is at least its length and its child
			return corrupt("interior node claims %d keys", nkeys)
		}
		n.keys = resize(n.keys, nkeys)
		n.children = resize(n.children, nkeys+1)
		n.children[0] = int64(le.Uint64(b[off:]))
		off += 8
		for i := 0; i < nkeys; i++ {
			if off+2 > len(b) {
				return corrupt("key %d starts past the page", i)
			}
			klen := int(le.Uint16(b[off:]))
			off += 2
			if off+klen+8 > len(b) {
				return corrupt("key %d (%d bytes) runs past the page", i, klen)
			}
			n.keys[i] = b[off : off+klen : off+klen]
			off += klen
			n.children[i+1] = int64(le.Uint64(b[off:]))
			off += 8
		}
	}
	return nil
}

// resize returns s at length n, on its own backing array if that can hold n.
func resize[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// search returns the index of the first key ≥ key, and whether it is equal.
//
//simlint:noalloc
func search(keys [][]byte, key []byte) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	eq := lo < len(keys) && bytes.Equal(keys[lo], key)
	return lo, eq
}

// childIndex returns which child of an internal node covers key.
//
//simlint:noalloc
func childIndex(keys [][]byte, key []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(key, keys[mid]) < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Get returns the value stored under key. The value is valid until the next
// call on this handle (see the package comment).
func (t *Tree) Get(key []byte) ([]byte, error) {
	t.releaseTo(0)
	n, err := t.readNode(t.root)
	if err != nil {
		return nil, err
	}
	for !n.leaf {
		n, err = t.readNode(n.children[childIndex(n.keys, key)])
		if err != nil {
			return nil, err
		}
	}
	i, eq := search(n.keys, key)
	if !eq {
		return nil, ErrNotFound
	}
	return n.vals[i], nil
}

// GetForUpdate is Get for a caller that will Put the same key next (a
// read-modify-write). The descent reads height-1 interior levels as Get does
// and then the leaf through pagestore.ReadForUpdate, so a locking store
// write-locks the one page the Put will write instead of upgrading it later.
// The value is valid until the next call on this handle — the Put included, so
// the caller builds the new value in a buffer of its own.
func (t *Tree) GetForUpdate(key []byte) ([]byte, error) {
	t.releaseTo(0)
	pageNo := t.root
	for level := 1; level < t.height; level++ {
		n, err := t.readNode(pageNo)
		if err != nil {
			return nil, err
		}
		if n.leaf {
			return nil, fmt.Errorf("%w: leaf page %d above level %d", ErrCorrupt, pageNo, t.height)
		}
		pageNo = n.children[childIndex(n.keys, key)]
	}
	n, err := t.readNodeVia(pagestore.ReadForUpdate, pageNo)
	if err != nil {
		return nil, err
	}
	if !n.leaf {
		return nil, fmt.Errorf("%w: interior page %d at leaf level %d", ErrCorrupt, pageNo, t.height)
	}
	i, eq := search(n.keys, key)
	if !eq {
		return nil, ErrNotFound
	}
	return n.vals[i], nil
}

// split describes a node split propagating upward.
type split struct {
	key   []byte // separator promoted to the parent
	right int64  // new right sibling
}

// Put inserts or replaces key's value. The meta page is rewritten only when
// something in it changed (replacing an existing key's value leaves it
// untouched — important for update-heavy workloads like TPC-B, where the
// meta page would otherwise become a per-transaction hot spot).
func (t *Tree) Put(key, value []byte) error {
	t.releaseTo(0)
	if nodeHeader+8+4+len(key)+len(value) > t.pageSize/2 {
		return ErrTooLarge
	}
	sp, inserted, err := t.insert(t.root, 1, key, value)
	if err != nil {
		return err
	}
	metaDirty := false
	if sp != nil {
		newRootNo, err := t.st.AllocPage()
		if err != nil {
			return err
		}
		root := &node{
			pageNo:   newRootNo,
			keys:     [][]byte{sp.key},
			children: []int64{t.root, sp.right},
		}
		if err := t.writeNode(root); err != nil {
			return err
		}
		t.root = newRootNo
		t.height++
		metaDirty = true
	}
	if inserted {
		t.count++
		metaDirty = true
	}
	if !metaDirty {
		return nil
	}
	return t.writeMeta()
}

func (t *Tree) insert(pageNo int64, level int, key, value []byte) (*split, bool, error) {
	n, err := t.readForWrite(pageNo, level)
	if err != nil {
		return nil, false, err
	}
	if n.leaf {
		// The node lives until this operation has written it, so it takes
		// the caller's slices as they are.
		i, eq := search(n.keys, key)
		inserted := !eq
		if eq {
			n.vals[i] = value
		} else {
			n.keys = append(n.keys, nil)
			copy(n.keys[i+1:], n.keys[i:])
			n.keys[i] = key
			n.vals = append(n.vals, nil)
			copy(n.vals[i+1:], n.vals[i:])
			n.vals[i] = value
		}
		sp, err := t.maybeSplit(n)
		return sp, inserted, err
	}
	ci := childIndex(n.keys, key)
	sp, inserted, err := t.insert(n.children[ci], level+1, key, value)
	if err != nil {
		return nil, false, err
	}
	if sp == nil {
		return nil, inserted, nil
	}
	// Insert the promoted separator into this node.
	n.keys = append(n.keys, nil)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = sp.key
	n.children = append(n.children, 0)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = sp.right
	up, err := t.maybeSplit(n)
	return up, inserted, err
}

// maybeSplit writes n back, splitting it first if it overflows the page.
func (t *Tree) maybeSplit(n *node) (*split, error) {
	if n.size() <= t.pageSize {
		return nil, t.writeNode(n)
	}
	mid := len(n.keys) / 2
	rightNo, err := t.st.AllocPage()
	if err != nil {
		return nil, err
	}
	var sep []byte
	right := &node{pageNo: rightNo, leaf: n.leaf}
	if n.leaf {
		right.keys = append(right.keys, n.keys[mid:]...)
		right.vals = append(right.vals, n.vals[mid:]...)
		right.next = n.next
		n.keys = n.keys[:mid]
		n.vals = n.vals[:mid]
		n.next = rightNo
		sep = right.keys[0] // stays readable until the operation ends, as its frame does
	} else {
		// The middle key moves up; it does not stay in either half.
		sep = n.keys[mid]
		right.keys = append(right.keys, n.keys[mid+1:]...)
		right.children = append(right.children, n.children[mid+1:]...)
		n.keys = n.keys[:mid]
		n.children = n.children[:mid+1]
	}
	if err := t.writeNode(n); err != nil {
		return nil, err
	}
	if err := t.writeNode(right); err != nil {
		return nil, err
	}
	return &split{key: sep, right: rightNo}, nil
}

func (t *Tree) leftmostLeaf() (*node, error) {
	n, err := t.readNode(t.root)
	if err != nil {
		return nil, err
	}
	for !n.leaf {
		n, err = t.readNode(n.children[0])
		if err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Cursor iterates leaf entries in key order. It reads through its Tree handle:
// any other call on the handle invalidates the cursor's position.
type Cursor struct {
	t   *Tree
	n   *node
	idx int
	err error
}

// First positions a cursor before the smallest key.
func (t *Tree) First() (*Cursor, error) {
	t.releaseTo(0)
	n, err := t.leftmostLeaf()
	if err != nil {
		return nil, err
	}
	return &Cursor{t: t, n: n, idx: -1}, nil
}

// Next advances to the next entry, returning false at the end.
func (c *Cursor) Next() bool {
	if c.err != nil {
		return false
	}
	c.idx++
	for c.idx >= len(c.n.keys) {
		next := c.n.next
		if next == 0 {
			return false
		}
		c.t.releaseTo(0) // the leaf just finished, and whatever Key and Value returned from it
		n, err := c.t.readNode(next)
		if err != nil {
			c.err = err
			return false
		}
		c.n = n
		c.idx = 0
	}
	return true
}

// Key returns the current entry's key, valid until the next call on the
// cursor's Tree handle that is not a Next within the same leaf.
func (c *Cursor) Key() []byte { return c.n.keys[c.idx] }

// Value returns the current entry's value, valid as long as Key is.
func (c *Cursor) Value() []byte { return c.n.vals[c.idx] }

// Err reports an iteration error, if any.
func (c *Cursor) Err() error { return c.err }

// Check validates tree invariants (ordering, separator bounds, leaf chain
// completeness) and returns the number of reachable records. Tests use it.
func (t *Tree) Check() (int64, error) {
	t.releaseTo(0)
	var leafCount int64
	var walk func(pageNo int64, lo, hi []byte) error
	var leaves []int64
	walk = func(pageNo int64, lo, hi []byte) error {
		// A node's frame is held while its subtree is walked (the separators
		// passed down alias it) and no longer: the walk holds one per level.
		mark := len(t.borrowed)
		defer func() { t.releaseTo(mark) }()
		n, err := t.readNode(pageNo)
		if err != nil {
			return err
		}
		for i := 1; i < len(n.keys); i++ {
			if bytes.Compare(n.keys[i-1], n.keys[i]) >= 0 {
				return fmt.Errorf("btree: keys out of order in page %d", pageNo)
			}
		}
		for _, k := range n.keys {
			if lo != nil && bytes.Compare(k, lo) < 0 {
				return fmt.Errorf("btree: key below separator in page %d", pageNo)
			}
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				return fmt.Errorf("btree: key above separator in page %d", pageNo)
			}
		}
		if n.leaf {
			leafCount += int64(len(n.keys))
			leaves = append(leaves, pageNo)
			return nil
		}
		for i, ch := range n.children {
			var clo, chi []byte
			if i > 0 {
				clo = n.keys[i-1]
			} else {
				clo = lo
			}
			if i < len(n.keys) {
				chi = n.keys[i]
			} else {
				chi = hi
			}
			if err := walk(ch, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, nil, nil); err != nil {
		return 0, err
	}
	// The leaf chain must visit exactly the reachable leaves, in order.
	n, err := t.leftmostLeaf()
	if err != nil {
		return 0, err
	}
	var chain []int64
	mark := len(t.borrowed)
	for {
		chain = append(chain, n.pageNo)
		next := n.next
		if next == 0 {
			break
		}
		t.releaseTo(mark) // the leaf just passed
		n, err = t.readNode(next)
		if err != nil {
			return 0, err
		}
	}
	if len(chain) != len(leaves) {
		return 0, fmt.Errorf("btree: leaf chain has %d leaves, tree has %d", len(chain), len(leaves))
	}
	return leafCount, nil
}
