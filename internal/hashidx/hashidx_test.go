package hashidx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/pagestore"
)

func newTable(t *testing.T) *Table {
	t.Helper()
	tb, err := Create(pagestore.NewMemStore(512))
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func key(i int) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(i))
	return b
}

func TestPutGet(t *testing.T) {
	tb := newTable(t)
	if err := tb.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := tb.Get([]byte("k"))
	if err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := tb.Get([]byte("absent")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

func TestReplace(t *testing.T) {
	tb := newTable(t)
	tb.Put([]byte("k"), []byte("v1"))
	tb.Put([]byte("k"), []byte("v2"))
	v, _ := tb.Get([]byte("k"))
	if string(v) != "v2" || tb.Count() != 1 {
		t.Fatalf("v=%q count=%d", v, tb.Count())
	}
}

func TestGrowthSplits(t *testing.T) {
	tb := newTable(t)
	const n = 500
	for i := 0; i < n; i++ {
		if err := tb.Put(key(i), key(i*3)); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	if tb.Buckets() <= 2 {
		t.Fatalf("buckets = %d; table should have split", tb.Buckets())
	}
	if tb.Count() != n {
		t.Fatalf("Count = %d", tb.Count())
	}
	for i := 0; i < n; i++ {
		v, err := tb.Get(key(i))
		if err != nil || !bytes.Equal(v, key(i*3)) {
			t.Fatalf("Get(%d) = %v, %v", i, v, err)
		}
	}
}

func TestDelete(t *testing.T) {
	tb := newTable(t)
	const n = 200
	for i := 0; i < n; i++ {
		tb.Put(key(i), key(i))
	}
	for i := 0; i < n; i += 2 {
		if err := tb.Delete(key(i)); err != nil {
			t.Fatalf("Delete(%d): %v", i, err)
		}
	}
	if tb.Count() != n/2 {
		t.Fatalf("Count = %d", tb.Count())
	}
	for i := 0; i < n; i++ {
		_, err := tb.Get(key(i))
		if i%2 == 0 && !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted %d still present", i)
		}
		if i%2 == 1 && err != nil {
			t.Fatalf("survivor %d lost: %v", i, err)
		}
	}
	if err := tb.Delete(key(0)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestScanVisitsAll(t *testing.T) {
	tb := newTable(t)
	const n = 300
	for i := 0; i < n; i++ {
		tb.Put(key(i), key(i))
	}
	seen := map[string]bool{}
	err := tb.Scan(func(k, v []byte) bool {
		seen[string(k)] = true
		return true
	})
	if err != nil || len(seen) != n {
		t.Fatalf("scan saw %d, %v", len(seen), err)
	}
}

func TestOverflowChains(t *testing.T) {
	// Values sized so only a couple fit per 512-byte page, forcing
	// overflow pages before splits catch up.
	tb := newTable(t)
	val := make([]byte, 150)
	for i := 0; i < 60; i++ {
		if err := tb.Put(key(i), val); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	for i := 0; i < 60; i++ {
		if _, err := tb.Get(key(i)); err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
	}
}

func TestPersistence(t *testing.T) {
	st := pagestore.NewMemStore(512)
	tb, _ := Create(st)
	for i := 0; i < 150; i++ {
		tb.Put(key(i), key(i+1))
	}
	tb2, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	if tb2.Count() != 150 {
		t.Fatalf("Count = %d", tb2.Count())
	}
	v, err := tb2.Get(key(77))
	if err != nil || !bytes.Equal(v, key(78)) {
		t.Fatalf("Get = %v, %v", v, err)
	}
}

func TestTooLarge(t *testing.T) {
	tb := newTable(t)
	if err := tb.Put([]byte("k"), make([]byte, 600)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v", err)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	st := pagestore.NewMemStore(512)
	st.AllocPage()
	if _, err := Open(st); err == nil {
		t.Fatal("garbage should not open")
	}
}

// Property: table behaves like a map under random put/delete traffic.
func TestTableMatchesMapProperty(t *testing.T) {
	tb := newTable(t)
	shadow := map[string]string{}
	prop := func(ops []struct {
		K   uint16
		V   uint16
		Del bool
	}) bool {
		for _, o := range ops {
			k := fmt.Sprintf("key-%d", o.K%300)
			if o.Del {
				_, exists := shadow[k]
				err := tb.Delete([]byte(k))
				if exists != (err == nil) {
					return false
				}
				delete(shadow, k)
			} else {
				v := fmt.Sprintf("val-%d", o.V)
				if err := tb.Put([]byte(k), []byte(v)); err != nil {
					return false
				}
				shadow[k] = v
			}
		}
		if tb.Count() != int64(len(shadow)) {
			return false
		}
		for k, v := range shadow {
			got, err := tb.Get([]byte(k))
			if err != nil || string(got) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// updateStore is a MemStore that records which pages were read plainly,
// which for update, and which were written.
type updateStore struct {
	*pagestore.MemStore
	reads, updates, writes []int64
}

func (s *updateStore) ReadPage(n int64, p []byte) error {
	s.reads = append(s.reads, n)
	return s.MemStore.ReadPage(n, p)
}

func (s *updateStore) ReadPageForUpdate(n int64, p []byte) error {
	s.updates = append(s.updates, n)
	return s.MemStore.ReadPage(n, p)
}

func (s *updateStore) WritePage(n int64, p []byte) error {
	s.writes = append(s.writes, n)
	return s.MemStore.WritePage(n, p)
}

// TestWritersReadBucketsForUpdate: on a store with pagestore.UpdateReader a
// read-modify-write (GetForUpdate then Put) and a Delete read every bucket
// page for update and none plainly, so a locking store never upgrades a
// shared bucket lock; a replacing Put writes its bucket page only (not the
// meta page), and a plain Get takes no update read.
func TestWritersReadBucketsForUpdate(t *testing.T) {
	st := &updateStore{MemStore: pagestore.NewMemStore(512)}
	tb, err := Create(st)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400 // enough to split buckets and grow overflow chains
	for i := 0; i < n; i++ {
		if err := tb.Put(key(i), key(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 13 {
		st.reads, st.updates, st.writes = nil, nil, nil
		v, err := tb.GetForUpdate(key(i))
		if err != nil || !bytes.Equal(v, key(i)) {
			t.Fatalf("GetForUpdate(%d) = %v, %v", i, v, err)
		}
		locked := append([]int64(nil), st.updates...)
		if err := tb.Put(key(i), key(i+1)); err != nil {
			t.Fatal(err)
		}
		if len(st.reads) != 0 || len(locked) == 0 {
			t.Fatalf("read-modify-write of %d read %v plainly, %v for update", i, st.reads, st.updates)
		}
		if len(st.writes) != 1 || st.writes[0] != locked[len(locked)-1] {
			t.Fatalf("replacing Put(%d) wrote %v, want only the bucket page %d it read for update", i, st.writes, locked[len(locked)-1])
		}
		st.reads, st.updates = nil, nil
		if err := tb.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
		if len(st.reads) != 0 || len(st.updates) == 0 {
			t.Fatalf("Delete(%d) read %v plainly, %v for update", i, st.reads, st.updates)
		}
	}
	st.reads, st.updates = nil, nil
	if _, err := tb.Get(key(1)); err != nil || len(st.updates) != 0 || len(st.reads) == 0 {
		t.Fatalf("Get read %v plainly, %v for update, err %v", st.reads, st.updates, err)
	}
}
