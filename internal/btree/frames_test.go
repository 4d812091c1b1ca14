package btree

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/frame"
	"repro/internal/pagestore"
)

var poisonPrefix = bytes.Repeat([]byte{frame.Poison}, 8)

// loadedTree returns a tree of n records (key(i) → 100 bytes starting with
// key(i)) on 4 KB pages, with or without a node cache.
func loadedTree(t *testing.T, n int, cached bool) *Tree {
	t.Helper()
	st := pagestore.NewMemStore(4096)
	i := 0
	if _, err := BulkLoad(st, func() ([]byte, []byte, bool) {
		if i >= n {
			return nil, nil, false
		}
		k := key(i)
		i++
		return k, append(k, make([]byte, 92)...), true
	}); err != nil {
		t.Fatal(err)
	}
	var c *NodeCache
	if cached {
		c = NewNodeCache(0)
	}
	tr, err := OpenWithCache(st, c)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// The db(3) rule broken on purpose: a Get value held across the handle's next
// call reads poison, with or without a cache lending the frames.
func TestGetValueIsPoisonedByTheNextCall(t *testing.T) {
	for _, cached := range []bool{false, true} {
		tr := loadedTree(t, 2000, cached)
		v, err := tr.Get(key(7))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(v, key(7)) {
			t.Fatalf("cached=%v: Get returned %x", cached, v[:8])
		}
		kept := append([]byte(nil), v...) // what a correct caller does
		if _, err := tr.Get(key(1999)); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(kept, key(7)) {
			t.Fatal("a copy must survive the next call")
		}
		// v's frame went back to the list when the second Get began; whether
		// the second descent reused it or not, the record is gone from it.
		if bytes.HasPrefix(v, key(7)) {
			t.Fatalf("cached=%v: a value held across the next call still reads the old record", cached)
		}
		tr.Close()
		if !bytes.HasPrefix(v, poisonPrefix) {
			t.Fatalf("cached=%v: after Close a held value must read poison, got %x", cached, v[:8])
		}
	}
}

func TestGetForUpdateValueIsPoisonedByThePut(t *testing.T) {
	tr := loadedTree(t, 2000, true)
	v, err := tr.GetForUpdate(key(42))
	if err != nil {
		t.Fatal(err)
	}
	fresh := append([]byte(nil), v...)
	fresh[50] = 0xEE
	if err := tr.Put(key(42), fresh); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	if !bytes.HasPrefix(v, poisonPrefix) {
		t.Fatalf("the value read for update must not outlive the Put, got %x", v[:8])
	}
	got, err := tr.Get(key(42))
	if err != nil || got[50] != 0xEE || !bytes.HasPrefix(got, key(42)) {
		t.Fatalf("the Put must have stored the caller's copy: %x, %v", got[:8], err)
	}
}

// A cursor's entry is valid within its leaf; once Next has crossed to the next
// leaf, or the handle has served another call, a held entry reads poison.
func TestCursorEntryIsPoisonedPastItsLeaf(t *testing.T) {
	tr := loadedTree(t, 2000, false)
	c, err := tr.First()
	if err != nil {
		t.Fatal(err)
	}
	if !c.Next() {
		t.Fatal("empty cursor")
	}
	firstKey, firstVal := c.Key(), c.Value()
	leaf := c.n.pageNo
	for c.Next() && c.n.pageNo == leaf {
		if !bytes.Equal(firstKey, key(0)) {
			t.Fatal("an entry must stay valid while the cursor is on its leaf")
		}
	}
	if c.n.pageNo == leaf {
		t.Fatal("the tree has one leaf: nothing to cross")
	}
	if bytes.Equal(firstKey, key(0)) || bytes.HasPrefix(firstVal, key(0)) {
		t.Fatal("an entry held past its leaf still reads the old record")
	}
	for c.Next() {
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
}

// One long-lived handle, as the benchmark's probes use it: no operation
// allocates a page-sized object, and the handle's frames neither leak nor
// grow. Keys and values are 200 bytes, so a node holds under twenty entries
// and its decoded slice headers stay far below a page: what a three-level
// operation allocates is then under one page only if none of the pages it
// touches is allocated.
func TestLongLivedHandleRecyclesItsFrames(t *testing.T) {
	const pageSize, records = 4096, 6000
	tr, err := Create(pagestore.NewMemStore(pageSize))
	if err != nil {
		t.Fatal(err)
	}
	k, val := make([]byte, 200), make([]byte, 200)
	setKey := func(i int) { copy(k, key(i*7919%records)) }
	for i := 0; i < records; i++ {
		setKey(i)
		if err := tr.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("height %d: the descent is too short to mean anything", tr.Height())
	}
	bytesPerOp := func(runs int, op func(i int)) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			op(i)
		}
		runtime.ReadMemStats(&m1)
		return (m1.TotalAlloc - m0.TotalAlloc) / uint64(runs)
	}
	get := func(i int) {
		setKey(i)
		if _, err := tr.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	put := func(i int) { // replaces: no splits, the steady state of TPC-B
		setKey(i)
		if err := tr.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	get(0)
	put(0)
	if b := bytesPerOp(10000, get); b >= pageSize {
		t.Errorf("Get allocates %d bytes per call: none of its %d pages may be allocated", b, tr.Height())
	}
	if b := bytesPerOp(10000, put); b >= pageSize {
		t.Errorf("Put allocates %d bytes per call: none of its pages may be allocated", b)
	}
	if len(tr.borrowed) > tr.Height()+1 {
		t.Errorf("the handle holds %d borrowed frames after 20,000 calls", len(tr.borrowed))
	}
	if held := len(tr.borrowed) + tr.own.Free(); held > tr.Height()+2 {
		t.Errorf("the handle's frame list grew to %d frames", held)
	}
}

// A scan through a never-closed handle, as the benchmark's audit does it,
// holds one leaf at a time.
func TestScanHoldsOneLeaf(t *testing.T) {
	tr := loadedTree(t, 5000, false)
	c, err := tr.First()
	if err != nil {
		t.Fatal(err)
	}
	crossed := false
	for leaf := c.n.pageNo; c.Next(); {
		crossed = crossed || c.n.pageNo != leaf
		// First's descent is one operation; from the first crossing on the
		// scan holds the leaf it is on and nothing else.
		if limit := map[bool]int{false: tr.Height(), true: 1}[crossed]; len(tr.borrowed) > limit {
			t.Fatalf("the scan holds %d frames (crossed a leaf: %v)", len(tr.borrowed), crossed)
		}
	}
	if held := len(tr.borrowed) + tr.own.Free(); held > tr.Height()+1 {
		t.Fatalf("a scan of %d leaves left %d frames with the handle", 5000/34, held)
	}
}

// Check holds one frame per level, not one per page.
func TestCheckHoldsOneFramePerLevel(t *testing.T) {
	tr := loadedTree(t, 5000, false)
	if n, err := tr.Check(); err != nil || n != 5000 {
		t.Fatalf("Check = %d, %v", n, err)
	}
	if held := len(tr.borrowed) + tr.own.Free(); held > tr.Height()+2 {
		t.Fatalf("Check left %d frames with the handle", held)
	}
}

// Handles that come and go over one cache, as one per transaction does, keep
// taking the same few frames from it.
func TestCacheLendsTheSameFramesToEveryHandle(t *testing.T) {
	tr := loadedTree(t, 5000, true)
	st, c := tr.st, tr.cache
	tr.Close()
	for i := 0; i < 1000; i++ {
		h, err := OpenWithCache(st, c)
		if err != nil {
			t.Fatal(err)
		}
		v, err := h.GetForUpdate(key(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Put(key(i), append([]byte(nil), v...)); err != nil {
			t.Fatal(err)
		}
		h.Close()
	}
	if free := c.frames.Free(); free > tr.Height()+2 {
		t.Fatalf("1,000 handles left %d frames on the cache's list", free)
	}
}

// BenchmarkBulkLoad loads 50,000 100-byte records — the `serial` workload's
// account relation — into an in-memory store: the loader's own cost, with no
// file system under it.
func BenchmarkBulkLoad(b *testing.B) {
	const records = 50000
	k, v := make([]byte, 8), make([]byte, 100)
	b.ReportAllocs()
	for b.Loop() {
		i := 0
		if _, err := BulkLoad(pagestore.NewMemStore(4096), func() ([]byte, []byte, bool) {
			if i >= records {
				return nil, nil, false
			}
			binary.BigEndian.PutUint64(k, uint64(i))
			i++
			return k, v, true
		}); err != nil {
			b.Fatal(err)
		}
	}
}
