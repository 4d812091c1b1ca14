package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/pagestore"
)

// bulkFill is the target page utilization for bulk-built nodes: full pages
// split immediately on the first insert, so a classic bulk load leaves some
// slack for future updates.
const bulkFill = 0.85

// BulkLoad builds a tree bottom-up from a sorted stream of key/value pairs —
// the standard way to create a large index (like the TPC-B account load)
// without paying a split cascade: leaves are written left to right at the
// fill factor, then each interior level is built over the one below.
//
// next returns the pairs in strictly ascending key order and ok=false at the
// end. Each pair is encoded into its leaf page before next is called again,
// so next may hand out the same two buffers every time. The store must be
// empty.
func BulkLoad(st pagestore.Store, next func() (key, value []byte, ok bool)) (*Tree, error) {
	if n, err := st.NumPages(); err != nil {
		return nil, err
	} else if n != 0 {
		return nil, fmt.Errorf("btree: store not empty (%d pages)", n)
	}
	t := newHandle(st, nil)
	defer t.releaseTo(0)
	if _, err := st.AllocPage(); err != nil { // page 0: meta
		return nil, err
	}
	budget := int(float64(t.pageSize) * bulkFill)
	le := binary.LittleEndian

	// 1. Build the leaf level, each leaf encoded straight into its page image.
	// Two frames take turns: cur is being filled; prev is complete but for
	// its next pointer, which it learns when cur gets its page number.
	type levelEntry struct {
		firstKey []byte
		pageNo   int64
	}
	const leafStart = nodeHeader + 8
	var leaves []levelEntry
	startLeaf := func(b []byte) {
		clear(b)
		b[0] = pgLeaf
	}
	cur, prev := t.borrow(), t.borrow()
	startLeaf(cur)
	curKeys, off := 0, leafStart
	var prevNo int64 // 0 = no previous leaf yet
	var count int64
	var lastKey []byte

	flushLeaf := func() error {
		if curKeys == 0 {
			return nil
		}
		pageNo, err := st.AllocPage()
		if err != nil {
			return err
		}
		le.PutUint16(cur[1:], uint16(curKeys))
		if prevNo != 0 {
			le.PutUint64(prev[nodeHeader:], uint64(pageNo))
			if err := st.WritePage(prevNo, prev); err != nil {
				return err
			}
		}
		klen := int(le.Uint16(cur[leafStart:]))
		first := append([]byte(nil), cur[leafStart+4:leafStart+4+klen]...)
		leaves = append(leaves, levelEntry{firstKey: first, pageNo: pageNo})
		prev, cur, prevNo = cur, prev, pageNo
		startLeaf(cur)
		curKeys, off = 0, leafStart
		return nil
	}

	for {
		k, v, ok := next()
		if !ok {
			break
		}
		if lastKey != nil && bytes.Compare(k, lastKey) <= 0 {
			return nil, fmt.Errorf("btree: bulk load input not strictly ascending at key %q", k)
		}
		if nodeHeader+8+4+len(k)+len(v) > t.pageSize/2 {
			return nil, ErrTooLarge
		}
		lastKey = append(lastKey[:0], k...)
		if curKeys > 0 && off+4+len(k)+len(v) > budget {
			// The entry would overflow the fill budget: it opens the next leaf.
			if err := flushLeaf(); err != nil {
				return nil, err
			}
		}
		le.PutUint16(cur[off:], uint16(len(k)))
		le.PutUint16(cur[off+2:], uint16(len(v)))
		off += 4
		off += copy(cur[off:], k)
		off += copy(cur[off:], v)
		curKeys++
		count++
	}
	if err := flushLeaf(); err != nil {
		return nil, err
	}
	if prevNo != 0 {
		// The last leaf ends the chain: its next pointer stays zero.
		if err := st.WritePage(prevNo, prev); err != nil {
			return nil, err
		}
	}
	if len(leaves) == 0 {
		// Empty input: a single empty leaf as root.
		rootNo, err := st.AllocPage()
		if err != nil {
			return nil, err
		}
		if err := t.writeNode(&node{pageNo: rootNo, leaf: true}); err != nil {
			return nil, err
		}
		t.root, t.height, t.count = rootNo, 1, 0
		return t, t.writeMeta()
	}

	// 2. Build interior levels until one node remains.
	level := leaves
	height := 1
	for len(level) > 1 {
		var parent []levelEntry
		i := 0
		for i < len(level) {
			in := &node{children: []int64{level[i].pageNo}}
			first := level[i].firstKey
			i++
			for i < len(level) {
				in.keys = append(in.keys, level[i].firstKey)
				in.children = append(in.children, level[i].pageNo)
				if in.size() > budget && len(in.children) > 2 {
					// Undo the tentative addition; it starts the next node.
					in.keys = in.keys[:len(in.keys)-1]
					in.children = in.children[:len(in.children)-1]
					break
				}
				i++
			}
			pageNo, err := st.AllocPage()
			if err != nil {
				return nil, err
			}
			in.pageNo = pageNo
			if err := t.writeNode(in); err != nil {
				return nil, err
			}
			parent = append(parent, levelEntry{firstKey: first, pageNo: pageNo})
		}
		level = parent
		height++
	}
	t.root = level[0].pageNo
	t.height = height
	t.count = count
	return t, t.writeMeta()
}
