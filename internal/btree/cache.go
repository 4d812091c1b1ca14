package btree

import (
	"encoding/binary"

	"repro/internal/frame"
	"repro/internal/pagestore"
)

// defaultCacheCap bounds a NodeCache when the caller does not.
const defaultCacheCap = 256

// NodeCache caches decoded interior nodes across Tree handles of the same
// relation, keyed by page number and validated by the page's LSN: every
// writeNode bumps the on-page LSN, so a cached node whose LSN no longer
// matches the bytes on the page is simply never returned. The cached read
// path still performs the full ReadPage — the page store's locking and cost
// accounting are unchanged — the cache only skips re-decoding an unchanged
// interior page into fresh slices on every descent.
//
// Cached nodes are shared and strictly read-only: only the read-only
// descents (Get, Seek, First) consult the cache, and the mutation paths
// always decode privately.
//
// One timeline caveat: per-page LSNs restart from the on-page value, so a
// transaction abort that restores a page's before-image also rewinds its
// LSN — a later write could then re-issue an LSN the cache already mapped
// to different (aborted-timeline) bytes. Callers running under a
// transaction system must therefore Flush the cache whenever a transaction
// aborts; the LSN check handles every committed-path invalidation.
//
// The cache is also the relation's long-lived object, so it owns the page
// frames of the handles opened with it: a transaction's handle borrows from
// frames and gives back at its next operation or Close, and the next
// transaction's handle takes the same frames again. The cached nodes' own
// pages are never on that list — see readNodeCached.
//
// A NodeCache has no lock, like the page stores its handles read through: it
// must be used from proc context, or from the main goroutine while no
// scheduler runs.
type NodeCache struct {
	capacity int
	nodes    map[int64]*node
	frames   frame.List
	hits     int64
	misses   int64
}

// takeFrame takes a frame of size bytes for one of the cache's handles.
//
//simlint:noalloc
func (c *NodeCache) takeFrame(size int) []byte {
	if c.frames.Size() != size {
		c.frames = frame.NewList(size) // first use: a relation has one page size
	}
	return c.frames.Take()
}

// giveFrames returns frames a handle took with takeFrame.
//
//simlint:noalloc
func (c *NodeCache) giveFrames(frames [][]byte) {
	for _, f := range frames {
		c.frames.Give(f)
	}
}

// NewNodeCache creates a cache holding at most capacity interior nodes
// (defaultCacheCap if capacity <= 0). Eviction is deterministic and
// wholesale: when full, the next insert of a new page clears the cache.
func NewNodeCache(capacity int) *NodeCache {
	if capacity <= 0 {
		capacity = defaultCacheCap
	}
	return &NodeCache{capacity: capacity, nodes: make(map[int64]*node)}
}

// Flush empties the cache. Transaction systems call this on abort (see the
// timeline caveat above).
func (c *NodeCache) Flush() {
	clear(c.nodes)
}

// Stats returns the hit/miss counters.
func (c *NodeCache) Stats() (hits, misses int64) {
	return c.hits, c.misses
}

// lookup returns the cached node for pageNo iff its LSN matches lsn.
//
//simlint:noalloc
func (c *NodeCache) lookup(pageNo int64, lsn uint64) *node {
	n := c.nodes[pageNo]
	if n == nil || n.lsn != lsn {
		c.misses++
		return nil
	}
	c.hits++
	return n
}

// insert stores a freshly decoded interior node, clearing the cache
// wholesale when it is full (deterministic, order-independent eviction).
func (c *NodeCache) insert(n *node) {
	if len(c.nodes) >= c.capacity && c.nodes[n.pageNo] == nil {
		clear(c.nodes)
	}
	c.nodes[n.pageNo] = n
}

// AttachCache wires a shared NodeCache into this tree handle's read-only
// descents, and makes the cache's frame list the handle's. Like any call on
// the handle it ends the validity of what the previous one returned.
func (t *Tree) AttachCache(c *NodeCache) {
	t.releaseTo(0)
	t.cache = c
}

// OpenWithCache loads an existing tree on a handle that shares the relation's
// node cache.
func OpenWithCache(st pagestore.Store, c *NodeCache) (*Tree, error) { return open(st, c) }

// readNodeCached reads pageNo for a read-only descent. Without a cache it
// is plain readNode. With one, the page is read into a borrowed frame (locking
// and cost identical to readNode); an interior page whose LSN matches a cached
// node returns the shared decoded node with zero further allocation, any other
// interior page is decoded from a private copy and cached for the next
// descent, and either way the frame goes straight back. That private copy is
// never recycled: the cached node aliases it, other handles descend through
// the node with no pin or reference count to say when they are done, and an
// entry a newer LSN supersedes may still be mid-descent elsewhere — so the
// garbage collector, not the frame list, decides when it dies. Leaves are
// never cached: they change on every update, and they are decoded in the
// borrowed frame itself, which Get's value and cursor entries then alias.
//
//simlint:noalloc
func (t *Tree) readNodeCached(pageNo int64) (*node, error) {
	if t.cache == nil {
		return t.readNode(pageNo)
	}
	mark := len(t.borrowed)
	b := t.borrow()
	//simlint:alloc(below this call is the page store's own budget: its locks, log records and cache misses)
	if err := t.st.ReadPage(pageNo, b); err != nil {
		return nil, err
	}
	if b[0] != pgInternal {
		//simlint:alloc(the decoded leaf's header and slice headers; the page itself is a recycled frame)
		return decodeNode(pageNo, b)
	}
	defer t.releaseTo(mark) // an interior node never aliases the handle's frame
	if len(b) >= nodeHeader+8 {
		lsn := binary.LittleEndian.Uint64(b[nodeHeader:])
		if n := t.cache.lookup(pageNo, lsn); n != nil {
			return n, nil
		}
	}
	//simlint:alloc(cache fill: the node's private page lives as long as any descent may hold the node)
	n, err := decodeNode(pageNo, append([]byte(nil), b...))
	if err != nil {
		return nil, err
	}
	//simlint:alloc(cache fill, as above)
	t.cache.insert(n)
	return n, nil
}
