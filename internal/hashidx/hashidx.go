// Package hashidx implements a linear-hashing access method — the third
// db(3) access method the paper's record layer offers ("B-Tree, hashed, or
// fixed-length records", §3). Buckets split incrementally as the table
// grows, so no global rehash ever happens; collisions beyond a page spill
// into chained overflow pages.
package hashidx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"repro/internal/pagestore"
)

// Errors.
var (
	ErrNotFound = errors.New("hashidx: key not found")
	ErrTooLarge = errors.New("hashidx: entry exceeds page capacity")
	ErrCorrupt  = errors.New("hashidx: corrupt page")
	ErrFull     = errors.New("hashidx: bucket directory full")
)

const (
	metaMagic = 0x48534831 // "HSH1"

	// splitFill is the average entries-per-bucket threshold that triggers
	// a bucket split.
	splitFill = 6
)

// Table is a linear-hash table.
type Table struct {
	st       pagestore.Store
	pageSize int
	level    uint32 // table has between 2^level and 2^(level+1) buckets
	split    int64  // next bucket to split
	count    int64
	dir      []int64 // bucket → page number
}

// dirCapacity is how many bucket pointers fit in the meta page.
func dirCapacity(pageSize int) int { return (pageSize - 32) / 8 }

func (t *Table) writeMeta() error {
	b := make([]byte, t.pageSize)
	le := binary.LittleEndian
	le.PutUint32(b[0:], metaMagic)
	le.PutUint32(b[4:], t.level)
	le.PutUint64(b[8:], uint64(t.split))
	le.PutUint64(b[16:], uint64(t.count))
	le.PutUint32(b[24:], uint32(len(t.dir)))
	off := 32
	for _, p := range t.dir {
		le.PutUint64(b[off:], uint64(p))
		off += 8
	}
	return t.st.WritePage(0, b)
}

// Create initializes a table with two buckets on an empty store.
func Create(st pagestore.Store) (*Table, error) {
	if n, err := st.NumPages(); err != nil {
		return nil, err
	} else if n != 0 {
		return nil, fmt.Errorf("hashidx: store not empty (%d pages)", n)
	}
	t := &Table{st: st, pageSize: st.PageSize(), level: 1}
	if _, err := st.AllocPage(); err != nil { // meta
		return nil, err
	}
	for i := 0; i < 2; i++ {
		p, err := st.AllocPage()
		if err != nil {
			return nil, err
		}
		t.dir = append(t.dir, p)
		if err := t.writeBucket(p, bucket{}); err != nil {
			return nil, err
		}
	}
	return t, t.writeMeta()
}

// Open loads an existing table.
func Open(st pagestore.Store) (*Table, error) {
	t := &Table{st: st, pageSize: st.PageSize()}
	b := make([]byte, t.pageSize)
	if err := st.ReadPage(0, b); err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	if le.Uint32(b[0:]) != metaMagic {
		return nil, fmt.Errorf("%w: bad meta magic", ErrCorrupt)
	}
	t.level = le.Uint32(b[4:])
	t.split = int64(le.Uint64(b[8:]))
	t.count = int64(le.Uint64(b[16:]))
	n := int(le.Uint32(b[24:]))
	off := 32
	for i := 0; i < n; i++ {
		t.dir = append(t.dir, int64(le.Uint64(b[off:])))
		off += 8
	}
	return t, nil
}

// Count returns the number of stored entries.
func (t *Table) Count() int64 { return t.count }

// Buckets returns the current number of primary buckets.
func (t *Table) Buckets() int { return len(t.dir) }

// bucket is the in-memory form of a bucket page (one link of the chain).
type bucket struct {
	next int64 // overflow page, 0 = none
	keys [][]byte
	vals [][]byte
}

// Page layout: next i64, nkeys u16, then (klen u16, vlen u16, key, val)*.
const bucketHeader = 8 + 2

func bucketSize(b *bucket) int {
	s := bucketHeader
	for i, k := range b.keys {
		s += 4 + len(k) + len(b.vals[i])
	}
	return s
}

func (t *Table) writeBucket(page int64, b bucket) error {
	buf := make([]byte, t.pageSize)
	le := binary.LittleEndian
	le.PutUint64(buf[0:], uint64(b.next))
	le.PutUint16(buf[8:], uint16(len(b.keys)))
	off := bucketHeader
	for i, k := range b.keys {
		le.PutUint16(buf[off:], uint16(len(k)))
		le.PutUint16(buf[off+2:], uint16(len(b.vals[i])))
		off += 4
		copy(buf[off:], k)
		off += len(k)
		copy(buf[off:], b.vals[i])
		off += len(b.vals[i])
	}
	if off > t.pageSize {
		return ErrTooLarge
	}
	return t.st.WritePage(page, buf)
}

// pageReader is how a bucket page is read: the store's ReadPage, or
// pagestore.ReadForUpdate on the paths that go on to rewrite the page, so a
// locking store write-locks it at first touch instead of upgrading it later.
type pageReader func(st pagestore.Store, n int64, p []byte) error

func (t *Table) readBucket(read pageReader, page int64) (bucket, error) {
	buf := make([]byte, t.pageSize)
	if err := read(t.st, page, buf); err != nil {
		return bucket{}, err
	}
	le := binary.LittleEndian
	var b bucket
	b.next = int64(le.Uint64(buf[0:]))
	n := int(le.Uint16(buf[8:]))
	off := bucketHeader
	for i := 0; i < n; i++ {
		klen := int(le.Uint16(buf[off:]))
		vlen := int(le.Uint16(buf[off+2:]))
		off += 4
		b.keys = append(b.keys, append([]byte(nil), buf[off:off+klen]...))
		off += klen
		b.vals = append(b.vals, append([]byte(nil), buf[off:off+vlen]...))
		off += vlen
	}
	return b, nil
}

func hashKey(key []byte) uint64 {
	h := fnv.New64a()
	h.Write(key)
	return h.Sum64()
}

// bucketFor computes the linear-hashing bucket index of key.
func (t *Table) bucketFor(key []byte) int64 {
	h := hashKey(key)
	mask := uint64(1)<<t.level - 1
	b := int64(h & mask)
	if b < t.split {
		b = int64(h & (mask<<1 | 1))
	}
	return b
}

// Get returns the value stored under key.
func (t *Table) Get(key []byte) ([]byte, error) {
	return t.get(pagestore.Store.ReadPage, key)
}

// GetForUpdate is Get for a caller that will Put or Delete the same key next
// (a read-modify-write): the bucket chain is read through
// pagestore.ReadForUpdate, as that Put will read it.
func (t *Table) GetForUpdate(key []byte) ([]byte, error) {
	return t.get(pagestore.ReadForUpdate, key)
}

func (t *Table) get(read pageReader, key []byte) ([]byte, error) {
	page := t.dir[t.bucketFor(key)]
	for page != 0 {
		b, err := t.readBucket(read, page)
		if err != nil {
			return nil, err
		}
		for i, k := range b.keys {
			if bytes.Equal(k, key) {
				return b.vals[i], nil
			}
		}
		page = b.next
	}
	return nil, ErrNotFound
}

// Put inserts or replaces key's value.
func (t *Table) Put(key, value []byte) error {
	if bucketHeader+4+len(key)+len(value) > t.pageSize {
		return ErrTooLarge
	}
	inserted, err := t.putChain(t.dir[t.bucketFor(key)], key, value)
	if err != nil {
		return err
	}
	if !inserted {
		// Replacing a value changes nothing in the meta page; leaving it
		// unwritten keeps it from becoming a per-update write hot spot.
		return nil
	}
	t.count++
	if t.count/int64(len(t.dir)) > splitFill {
		if err := t.splitBucket(); err != nil && !errors.Is(err, ErrFull) {
			return err
		}
	}
	return t.writeMeta()
}

// putChain inserts into a bucket chain, spilling to overflow pages as needed.
func (t *Table) putChain(page int64, key, value []byte) (bool, error) {
	for {
		b, err := t.readBucket(pagestore.ReadForUpdate, page)
		if err != nil {
			return false, err
		}
		for i, k := range b.keys {
			if bytes.Equal(k, key) {
				b.vals[i] = append([]byte(nil), value...)
				return false, t.writeBucket(page, b)
			}
		}
		trial := bucket{next: b.next, keys: append(b.keys, key), vals: append(b.vals, value)}
		if bucketSize(&trial) <= t.pageSize {
			return true, t.writeBucket(page, trial)
		}
		if b.next == 0 {
			ov, err := t.st.AllocPage()
			if err != nil {
				return false, err
			}
			if err := t.writeBucket(ov, bucket{keys: [][]byte{key}, vals: [][]byte{value}}); err != nil {
				return false, err
			}
			b.next = ov
			return true, t.writeBucket(page, b)
		}
		page = b.next
	}
}

// splitBucket performs one linear-hashing split: bucket `split` is rehashed
// between itself and a new bucket at index split+2^level.
func (t *Table) splitBucket() error {
	if len(t.dir) >= dirCapacity(t.pageSize) {
		return ErrFull
	}
	oldIdx := t.split
	newIdx := t.split + int64(1)<<t.level
	newPage, err := t.st.AllocPage()
	if err != nil {
		return err
	}
	t.dir = append(t.dir, newPage)

	// Collect every entry in the old chain.
	var keys, vals [][]byte
	var chain []int64
	page := t.dir[oldIdx]
	for page != 0 {
		chain = append(chain, page)
		b, err := t.readBucket(pagestore.ReadForUpdate, page)
		if err != nil {
			return err
		}
		keys = append(keys, b.keys...)
		vals = append(vals, b.vals...)
		page = b.next
	}

	// Advance the split pointer BEFORE redistribution so bucketFor uses
	// the expanded address space.
	t.split++
	if t.split == int64(1)<<t.level {
		t.level++
		t.split = 0
	}

	var oldB, newB bucket
	for i, k := range keys {
		h := hashKey(k)
		if t.rehashIndex(h, oldIdx, newIdx) == newIdx {
			newB.keys = append(newB.keys, k)
			newB.vals = append(newB.vals, vals[i])
		} else {
			oldB.keys = append(oldB.keys, k)
			oldB.vals = append(oldB.vals, vals[i])
		}
	}
	if err := t.writeChain(chain, t.dir[oldIdx], oldB); err != nil {
		return err
	}
	return t.writeChain(nil, newPage, newB)
}

// rehashIndex decides whether a key with hash h belongs in oldIdx or newIdx
// after the split: newIdx differs from oldIdx in exactly one bit (the 2^level
// bit in effect at split time), so that bit of the hash decides.
func (t *Table) rehashIndex(h uint64, oldIdx, newIdx int64) int64 {
	bit := uint64(newIdx - oldIdx) // == 2^level at split time
	if h&bit != 0 {
		return newIdx
	}
	return oldIdx
}

// writeChain stores a bucket's entries across its existing chain pages (and
// new overflow pages if needed), clearing leftover links.
func (t *Table) writeChain(chain []int64, first int64, b bucket) error {
	if len(chain) == 0 {
		chain = []int64{first}
	}
	ci := 0
	cur := bucket{}
	flushTo := func(page int64, next int64) error {
		cur.next = next
		err := t.writeBucket(page, cur)
		cur = bucket{}
		return err
	}
	for i := 0; i < len(b.keys); i++ {
		trial := bucket{keys: append(cur.keys, b.keys[i]), vals: append(cur.vals, b.vals[i])}
		if bucketSize(&trial) > t.pageSize {
			// Current page is full: move to the next chain page.
			var next int64
			if ci+1 < len(chain) {
				next = chain[ci+1]
			} else {
				ov, err := t.st.AllocPage()
				if err != nil {
					return err
				}
				chain = append(chain, ov)
				next = ov
			}
			if err := flushTo(chain[ci], next); err != nil {
				return err
			}
			ci++
		}
		cur.keys = append(cur.keys, b.keys[i])
		cur.vals = append(cur.vals, b.vals[i])
	}
	if err := flushTo(chain[ci], 0); err != nil {
		return err
	}
	// Clear any leftover chain pages.
	for i := ci + 1; i < len(chain); i++ {
		if err := t.writeBucket(chain[i], bucket{}); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes key.
func (t *Table) Delete(key []byte) error {
	page := t.dir[t.bucketFor(key)]
	for page != 0 {
		b, err := t.readBucket(pagestore.ReadForUpdate, page)
		if err != nil {
			return err
		}
		for i, k := range b.keys {
			if bytes.Equal(k, key) {
				b.keys = append(b.keys[:i], b.keys[i+1:]...)
				b.vals = append(b.vals[:i], b.vals[i+1:]...)
				if err := t.writeBucket(page, b); err != nil {
					return err
				}
				t.count--
				return t.writeMeta()
			}
		}
		page = b.next
	}
	return ErrNotFound
}

// Scan invokes fn for every entry (in unspecified order), stopping early if
// fn returns false.
func (t *Table) Scan(fn func(key, value []byte) bool) error {
	for _, first := range t.dir {
		page := first
		for page != 0 {
			b, err := t.readBucket(pagestore.Store.ReadPage, page)
			if err != nil {
				return err
			}
			for i, k := range b.keys {
				if !fn(k, b.vals[i]) {
					return nil
				}
			}
			page = b.next
		}
	}
	return nil
}
