package btree

import (
	"bytes"
	"testing"

	"repro/internal/pagestore"
)

// cachedTree builds a multi-level tree and attaches a fresh NodeCache.
func cachedTree(t *testing.T, n int) (*Tree, *NodeCache) {
	t.Helper()
	tr := newTree(t)
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i*7919%n), key(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("height = %d, want >= 3 for a meaningful cache test", tr.Height())
	}
	c := NewNodeCache(64)
	tr.AttachCache(c)
	return tr, c
}

func TestNodeCacheHitsAndCorrectness(t *testing.T) {
	const n = 2000
	tr, c := cachedTree(t, n)
	for i := 0; i < n; i++ {
		v, err := tr.Get(key(i))
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if len(v) != 8 {
			t.Fatalf("Get(%d) = %x", i, v)
		}
	}
	hits, misses := c.Stats()
	if hits == 0 {
		t.Fatalf("cache never hit (hits=%d misses=%d)", hits, misses)
	}
	// Steady-state: every interior node on every descent after warmup hits.
	if hits < misses {
		t.Fatalf("cache mostly missing (hits=%d misses=%d)", hits, misses)
	}
}

func TestNodeCacheInvalidation(t *testing.T) {
	const n = 2000
	tr, c := cachedTree(t, n)
	// Warm the cache over the whole key space.
	for i := 0; i < n; i += 13 {
		if _, err := tr.Get(key(i)); err != nil {
			t.Fatalf("warm Get(%d): %v", i, err)
		}
	}
	// Mutate heavily: inserts beyond the loaded range force leaf splits that
	// rewrite interior pages (bumping their LSNs).
	for i := n; i < 2*n; i++ {
		if err := tr.Put(key(i), key(i)); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	// Every read must see the post-mutation tree: stale cached interiors
	// carry old LSNs and are skipped by the LSN check.
	for i := 0; i < 2*n; i += 7 {
		v, err := tr.Get(key(i))
		if err != nil {
			t.Fatalf("Get(%d) after splits: %v", i, err)
		}
		if i >= n && !bytes.Equal(v, key(i)) {
			t.Fatalf("Get(%d) = %x, want %x", i, v, key(i))
		}
	}
	if cnt, err := tr.Check(); err != nil || cnt != 2*n {
		t.Fatalf("Check = %d, %v; want %d", cnt, err, 2*n)
	}
	// A second handle sharing the cache sees the same (valid) entries.
	tr2, err := OpenWithCache(tr.st, c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*n; i += 101 {
		if _, err := tr2.Get(key(i)); err != nil {
			t.Fatalf("shared-handle Get(%d): %v", i, err)
		}
	}
}

func TestNodeCacheFlush(t *testing.T) {
	const n = 2000
	tr, c := cachedTree(t, n)
	for i := 0; i < n; i += 13 {
		tr.Get(key(i))
	}
	c.Flush()
	left := len(c.nodes)
	if left != 0 {
		t.Fatalf("Flush left %d entries", left)
	}
	if _, err := tr.Get(key(1)); err != nil {
		t.Fatalf("Get after Flush: %v", err)
	}
}

func TestNodeCacheWholesaleEviction(t *testing.T) {
	const n = 2000
	tr, _ := cachedTree(t, n)
	small := NewNodeCache(1)
	tr.AttachCache(small)
	for i := 0; i < n; i += 37 {
		if _, err := tr.Get(key(i)); err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
	}
	entries := len(small.nodes)
	if entries > 1 {
		t.Fatalf("capacity-1 cache holds %d entries", entries)
	}
}

// TestNodeCacheAllocs is the regression test for the cache's purpose:
// a cached read-only descent must allocate strictly less than an uncached
// one, with the remaining allocations attributable to the (uncached) leaf
// decode only.
func TestNodeCacheAllocs(t *testing.T) {
	const n = 2000
	tr, _ := cachedTree(t, n)
	k := key(1234)
	get := func() {
		if _, err := tr.Get(k); err != nil {
			t.Fatalf("Get: %v", err)
		}
	}
	get() // warm scratch + cache along this descent
	cached := testing.AllocsPerRun(200, get)

	bare, err := Open(tr.st)
	if err != nil {
		t.Fatal(err)
	}
	getBare := func() {
		if _, err := bare.Get(k); err != nil {
			t.Fatalf("Get: %v", err)
		}
	}
	getBare()
	uncached := testing.AllocsPerRun(200, getBare)

	if cached >= uncached {
		t.Fatalf("cached descent allocates %.1f/op, uncached %.1f/op: cache saves nothing", cached, uncached)
	}
	// Height >= 3 means >= 2 interior decodes saved; the leaf decode costs
	// 1 page buffer + 1 node + 2 slice headers (+1 scratch-free copy).
	if cached > 6 {
		t.Fatalf("cached descent allocates %.1f/op, want <= 6", cached)
	}
}

// TestInteriorLSNMonotonic verifies writeNode bumps the on-page LSN of
// interior pages so cache validation can key on it.
func TestInteriorLSNMonotonic(t *testing.T) {
	st := pagestore.NewMemStore(512)
	tr, err := Create(st)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 2 {
		t.Fatalf("height = %d", tr.Height())
	}
	root, err := tr.readNode(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	if root.leaf {
		t.Fatal("root unexpectedly a leaf")
	}
	before := root.lsn
	if before == 0 {
		t.Fatal("interior root has zero LSN")
	}
	// Force more splits; the root must be rewritten with a higher LSN.
	for i := n; i < 4*n; i++ {
		if err := tr.Put(key(i), key(i)); err != nil {
			t.Fatal(err)
		}
	}
	root2, err := tr.readNode(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	if !root2.leaf && root2.pageNo == root.pageNo && root2.lsn <= before {
		t.Fatalf("root LSN did not advance: %d -> %d", before, root2.lsn)
	}
}
