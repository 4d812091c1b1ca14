package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/pagestore"
)

func newTree(t *testing.T) *Tree {
	t.Helper()
	tr, err := Create(pagestore.NewMemStore(512)) // small pages force splits
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func key(i int) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(i))
	return b
}

func TestPutGet(t *testing.T) {
	tr := newTree(t)
	if err := tr.Put([]byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, err := tr.Get([]byte("hello"))
	if err != nil || string(v) != "world" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := tr.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
}

func TestPutReplace(t *testing.T) {
	tr := newTree(t)
	tr.Put([]byte("k"), []byte("v1"))
	tr.Put([]byte("k"), []byte("v2"))
	v, _ := tr.Get([]byte("k"))
	if string(v) != "v2" {
		t.Fatalf("Get = %q", v)
	}
	if tr.Count() != 1 {
		t.Fatalf("Count = %d, want 1", tr.Count())
	}
}

func TestManyInsertionsSplit(t *testing.T) {
	tr := newTree(t)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i*7919%n), key(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if tr.Height() < 2 {
		t.Fatalf("height = %d; %d inserts should split", tr.Height(), n)
	}
	if tr.Count() != n {
		t.Fatalf("Count = %d, want %d", tr.Count(), n)
	}
	if cnt, err := tr.Check(); err != nil || cnt != n {
		t.Fatalf("Check = %d, %v", cnt, err)
	}
	for i := 0; i < n; i += 97 {
		if _, err := tr.Get(key(i)); err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
	}
}

func TestScanInKeyOrder(t *testing.T) {
	tr := newTree(t)
	const n = 500
	// Insert in random-ish order.
	for i := 0; i < n; i++ {
		tr.Put(key(i*613%n), []byte{byte(i)})
	}
	c, err := tr.First()
	if err != nil {
		t.Fatal(err)
	}
	var prev []byte
	count := 0
	for c.Next() {
		if prev != nil && bytes.Compare(prev, c.Key()) >= 0 {
			t.Fatal("scan out of order")
		}
		prev = append(prev[:0], c.Key()...)
		count++
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	if count != n {
		t.Fatalf("scan visited %d, want %d", count, n)
	}
}

func TestTooLargeRejected(t *testing.T) {
	tr := newTree(t)
	big := make([]byte, 400)
	if err := tr.Put([]byte("k"), big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
}

func TestPersistenceViaOpen(t *testing.T) {
	st := pagestore.NewMemStore(512)
	tr, err := Create(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		tr.Put(key(i), key(i*2))
	}
	tr2, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Count() != 400 {
		t.Fatalf("Count after Open = %d", tr2.Count())
	}
	v, err := tr2.Get(key(123))
	if err != nil || !bytes.Equal(v, key(246)) {
		t.Fatalf("Get after Open = %v, %v", v, err)
	}
}

func TestVariableLengthKeys(t *testing.T) {
	tr := newTree(t)
	keys := []string{"a", "ab", "abc", "b", "ba", "z", "zz", "0", "00", "m"}
	for i, k := range keys {
		if err := tr.Put([]byte(k), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	c, _ := tr.First()
	i := 0
	for c.Next() {
		if string(c.Key()) != sorted[i] {
			t.Fatalf("position %d: got %q want %q", i, c.Key(), sorted[i])
		}
		i++
	}
	if i != len(keys) {
		t.Fatalf("visited %d keys", i)
	}
}

// Property: the tree behaves like a sorted map under random inserts and
// replaces.
func TestTreeMatchesMapProperty(t *testing.T) {
	tr := newTree(t)
	shadow := map[string]string{}
	op := func(ops []struct {
		K uint16
		V uint16
	}) bool {
		for _, o := range ops {
			k := string(key(int(o.K % 512)))
			v := string(key(int(o.V)))
			if err := tr.Put([]byte(k), []byte(v)); err != nil {
				return false
			}
			shadow[k] = v
		}
		if tr.Count() != int64(len(shadow)) {
			return false
		}
		for k, v := range shadow {
			got, err := tr.Get([]byte(k))
			if err != nil || string(got) != v {
				return false
			}
		}
		cnt, err := tr.Check()
		return err == nil && cnt == int64(len(shadow))
	}
	if err := quick.Check(op, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialInsertDense(t *testing.T) {
	// Sequential insertion (the TPC-B account load) must produce a valid,
	// scannable tree.
	tr := newTree(t)
	const n = 3000
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), key(i)); err != nil {
			t.Fatal(err)
		}
	}
	cnt, err := tr.Check()
	if err != nil || cnt != n {
		t.Fatalf("Check = %d, %v", cnt, err)
	}
	c, _ := tr.First()
	i := 0
	for c.Next() {
		if !bytes.Equal(c.Key(), key(i)) {
			t.Fatalf("scan position %d wrong", i)
		}
		i++
	}
	if i != n {
		t.Fatalf("scan visited %d", i)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	st := pagestore.NewMemStore(512)
	st.AllocPage()
	if _, err := Open(st); err == nil {
		t.Fatal("opening garbage should fail")
	}
}

func ExampleTree() {
	st := pagestore.NewMemStore(4096)
	tr, _ := Create(st)
	tr.Put([]byte("account-42"), []byte("balance=100"))
	v, _ := tr.Get([]byte("account-42"))
	fmt.Println(string(v))
	// Output: balance=100
}

func sortedFeeder(n int) func() ([]byte, []byte, bool) {
	i := 0
	return func() ([]byte, []byte, bool) {
		if i >= n {
			return nil, nil, false
		}
		k := key(i)
		v := key(i * 2)
		i++
		return k, v, true
	}
}

func TestBulkLoadBasic(t *testing.T) {
	st := pagestore.NewMemStore(512)
	tr, err := BulkLoad(st, sortedFeeder(5000))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 5000 {
		t.Fatalf("Count = %d", tr.Count())
	}
	if cnt, err := tr.Check(); err != nil || cnt != 5000 {
		t.Fatalf("Check = %d, %v", cnt, err)
	}
	// Point lookups.
	for i := 0; i < 5000; i += 137 {
		v, err := tr.Get(key(i))
		if err != nil || !bytes.Equal(v, key(i*2)) {
			t.Fatalf("Get(%d) = %v, %v", i, v, err)
		}
	}
	// Full ordered scan.
	c, _ := tr.First()
	i := 0
	for c.Next() {
		if !bytes.Equal(c.Key(), key(i)) {
			t.Fatalf("scan position %d wrong", i)
		}
		i++
	}
	if i != 5000 {
		t.Fatalf("scan visited %d", i)
	}
}

func TestBulkLoadThenMutate(t *testing.T) {
	st := pagestore.NewMemStore(512)
	tr, err := BulkLoad(st, sortedFeeder(2000))
	if err != nil {
		t.Fatal(err)
	}
	// Inserts and replaces must work on a bulk-built tree.
	for i := 0; i < 500; i++ {
		if err := tr.Put(key(10000+i), key(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i += 2 {
		if err := tr.Put(key(i), key(i+1)); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	want := int64(2000 + 500)
	if tr.Count() != want {
		t.Fatalf("Count = %d, want %d", tr.Count(), want)
	}
	if cnt, err := tr.Check(); err != nil || cnt != want {
		t.Fatalf("Check = %d, %v", cnt, err)
	}
	for i := 0; i < 2000; i++ {
		want := key(i * 2)
		if i%2 == 0 {
			want = key(i + 1)
		}
		if v, err := tr.Get(key(i)); err != nil || !bytes.Equal(v, want) {
			t.Fatalf("Get(%d) = %v, %v", i, v, err)
		}
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	st := pagestore.NewMemStore(512)
	tr, err := BulkLoad(st, sortedFeeder(0))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 0 {
		t.Fatalf("Count = %d", tr.Count())
	}
	if _, err := tr.Get(key(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
	if err := tr.Put(key(1), key(2)); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadSingleEntry(t *testing.T) {
	st := pagestore.NewMemStore(512)
	tr, err := BulkLoad(st, sortedFeeder(1))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 1 || tr.Count() != 1 {
		t.Fatalf("height=%d count=%d", tr.Height(), tr.Count())
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	st := pagestore.NewMemStore(512)
	vals := [][]byte{key(5), key(3)}
	i := 0
	_, err := BulkLoad(st, func() ([]byte, []byte, bool) {
		if i >= len(vals) {
			return nil, nil, false
		}
		k := vals[i]
		i++
		return k, k, true
	})
	if err == nil {
		t.Fatal("unsorted input must be rejected")
	}
}

func TestBulkLoadRejectsDuplicates(t *testing.T) {
	st := pagestore.NewMemStore(512)
	i := 0
	_, err := BulkLoad(st, func() ([]byte, []byte, bool) {
		i++
		if i > 2 {
			return nil, nil, false
		}
		return key(7), key(7), true
	})
	if err == nil {
		t.Fatal("duplicate keys must be rejected")
	}
}

func TestBulkLoadMatchesIncremental(t *testing.T) {
	// The bulk-built tree must contain exactly the same mapping as an
	// incrementally built one.
	stA := pagestore.NewMemStore(512)
	bulk, err := BulkLoad(stA, sortedFeeder(1234))
	if err != nil {
		t.Fatal(err)
	}
	inc := newTree(t)
	for i := 0; i < 1234; i++ {
		inc.Put(key(i), key(i*2))
	}
	ca, _ := bulk.First()
	cb, _ := inc.First()
	for {
		na, nb := ca.Next(), cb.Next()
		if na != nb {
			t.Fatal("trees have different lengths")
		}
		if !na {
			break
		}
		if !bytes.Equal(ca.Key(), cb.Key()) || !bytes.Equal(ca.Value(), cb.Value()) {
			t.Fatalf("divergence at %v vs %v", ca.Key(), cb.Key())
		}
	}
}

// updateStore is a MemStore that records, in order, which pages were read
// plainly and which for update.
type updateStore struct {
	*pagestore.MemStore
	reads, updates []int64
}

func (s *updateStore) ReadPage(n int64, p []byte) error {
	s.reads = append(s.reads, n)
	return s.MemStore.ReadPage(n, p)
}

func (s *updateStore) ReadPageForUpdate(n int64, p []byte) error {
	s.updates = append(s.updates, n)
	return s.MemStore.ReadPage(n, p)
}

// TestGetForUpdateLocksOnlyTheLeaf: GetForUpdate returns what Get returns,
// reads the interior levels plainly and exactly one page — the leaf the
// following Put rewrites — for update, on bulk-loaded and on grown trees, and
// falls back to plain reads on a store without UpdateReader.
func TestGetForUpdateLocksOnlyTheLeaf(t *testing.T) {
	const n = 3000
	build := map[string]func(st pagestore.Store) *Tree{
		"bulk": func(st pagestore.Store) *Tree {
			tr, err := BulkLoad(st, sortedFeeder(n))
			if err != nil {
				t.Fatal(err)
			}
			return tr
		},
		"grown": func(st pagestore.Store) *Tree {
			tr, err := Create(st)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := tr.Put(key(i), key(i*2)); err != nil {
					t.Fatal(err)
				}
			}
			return tr
		},
	}
	for name, mk := range build {
		st := &updateStore{MemStore: pagestore.NewMemStore(512)}
		tr := mk(st)
		if tr.Height() < 3 {
			t.Fatalf("%s: height %d, want a tree with interior levels", name, tr.Height())
		}
		for i := 0; i < n; i += 61 {
			st.reads, st.updates = nil, nil
			v, err := tr.GetForUpdate(key(i))
			if err != nil || !bytes.Equal(v, key(i*2)) {
				t.Fatalf("%s: GetForUpdate(%d) = %v, %v", name, i, v, err)
			}
			if len(st.updates) != 1 || len(st.reads) != tr.Height()-1 {
				t.Fatalf("%s: GetForUpdate(%d) read %v plainly and %v for update, want %d interior pages and the leaf",
					name, i, st.reads, st.updates, tr.Height()-1)
			}
			leaf := st.updates[0]
			st.reads, st.updates = nil, nil
			if err := tr.Put(key(i), key(i*2)); err != nil {
				t.Fatal(err)
			}
			if len(st.updates) != 1 || st.updates[0] != leaf {
				t.Fatalf("%s: Put(%d) read %v for update, GetForUpdate had locked %d", name, i, st.updates, leaf)
			}
		}
		if _, err := tr.GetForUpdate(key(n + 5)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: GetForUpdate(missing) = %v, want ErrNotFound", name, err)
		}
	}
	plain := build["bulk"](pagestore.NewMemStore(512))
	if v, err := plain.GetForUpdate(key(7)); err != nil || !bytes.Equal(v, key(14)) {
		t.Fatalf("GetForUpdate on a plain store = %v, %v", v, err)
	}
}

// TestPutReadsTheLeafForUpdate: a Put (replacing, or inserting a new key,
// with or without a split) reads height-1 interior pages plainly on the way
// down and exactly one page — the leaf it rewrites — for update, and never
// reads that leaf plainly: on a locking store no record-level write upgrades
// a shared lock.
func TestPutReadsTheLeafForUpdate(t *testing.T) {
	const n = 3000
	st := &updateStore{MemStore: pagestore.NewMemStore(512)}
	next := 0
	tr, err := BulkLoad(st, func() ([]byte, []byte, bool) { // even keys: the odd ones are free to insert
		next += 2
		return key(next - 2), key(next), next <= 2*n
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(op string, i, height int) {
		t.Helper()
		if len(st.updates) != 1 || len(st.reads) < height-1 {
			t.Fatalf("%s(%d) read %v plainly and %v for update, want %d interior pages and one leaf",
				op, i, st.reads, st.updates, height-1)
		}
		for _, pg := range st.reads {
			if pg == st.updates[0] {
				t.Fatalf("%s(%d) also read its leaf %d plainly (%v): that read lock would be upgraded", op, i, pg, st.reads)
			}
		}
	}
	for i := 1; i < 2*n; i += 2 { // enough inserts to split leaves and interior pages
		st.reads, st.updates = nil, nil
		h := tr.Height()
		if err := tr.Put(key(i), key(i)); err != nil {
			t.Fatal(err)
		}
		check("Put/insert", i, h)
		if len(st.reads) != h-1 {
			t.Fatalf("Put(%d) read %v plainly, want the %d interior pages only", i, st.reads, h-1)
		}
	}
	for i := 0; i < 2*n; i += 7 {
		st.reads, st.updates = nil, nil
		h := tr.Height()
		if err := tr.Put(key(i), key(i+1)); err != nil {
			t.Fatal(err)
		}
		check("Put/replace", i, h)
		if len(st.reads) != h-1 {
			t.Fatalf("Put(%d) read %v plainly, want the %d interior pages only", i, st.reads, h-1)
		}
	}
	if _, err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}
