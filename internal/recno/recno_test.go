package recno

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/frame"
	"repro/internal/pagestore"
)

func newFile(t *testing.T, recSize int) *File {
	t.Helper()
	f, err := Create(pagestore.NewMemStore(512), recSize)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func rec(size int, seed byte) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(i) + seed
	}
	return b
}

func TestAppendGet(t *testing.T) {
	f := newFile(t, 50)
	n, err := f.Append(rec(50, 1))
	if err != nil || n != 0 {
		t.Fatalf("Append = %d, %v", n, err)
	}
	got, err := f.Get(0)
	if err != nil || !bytes.Equal(got, rec(50, 1)) {
		t.Fatalf("Get = %v, %v", got, err)
	}
}

func TestAppendAcrossPages(t *testing.T) {
	f := newFile(t, 100) // 5 records per 512-byte page
	const n = 37
	for i := 0; i < n; i++ {
		if _, err := f.Append(rec(100, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if f.Count() != n {
		t.Fatalf("Count = %d", f.Count())
	}
	for i := 0; i < n; i++ {
		got, err := f.Get(int64(i))
		if err != nil || !bytes.Equal(got, rec(100, byte(i))) {
			t.Fatalf("Get(%d) mismatch: %v", i, err)
		}
	}
}

func TestOutOfRange(t *testing.T) {
	f := newFile(t, 20)
	f.Append(rec(20, 0))
	if _, err := f.Get(1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("got %v", err)
	}
	if _, err := f.Get(-1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("got %v", err)
	}
}

func TestBadSize(t *testing.T) {
	f := newFile(t, 20)
	if _, err := f.Append(rec(19, 0)); !errors.Is(err, ErrBadSize) {
		t.Fatalf("got %v", err)
	}
}

func TestPersistence(t *testing.T) {
	st := pagestore.NewMemStore(512)
	f, _ := Create(st, 40)
	for i := 0; i < 30; i++ {
		f.Append(rec(40, byte(i)))
	}
	f2, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Count() != 30 || f2.RecordSize() != 40 {
		t.Fatalf("reopened: count=%d recsize=%d", f2.Count(), f2.RecordSize())
	}
	got, _ := f2.Get(17)
	if !bytes.Equal(got, rec(40, 17)) {
		t.Fatal("reopened content wrong")
	}
}

func TestCreateValidation(t *testing.T) {
	if _, err := Create(pagestore.NewMemStore(512), 0); err == nil {
		t.Fatal("zero record size should fail")
	}
	if _, err := Create(pagestore.NewMemStore(512), 513); err == nil {
		t.Fatal("record larger than page should fail")
	}
	if _, err := Create(pagestore.NewMemStore(512), 512); err == nil {
		t.Fatal("a record that leaves no room for its used flag should fail")
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	st := pagestore.NewMemStore(512)
	st.AllocPage()
	if _, err := Open(st); err == nil {
		t.Fatal("garbage should not open")
	}
}

// Property: append/get behaves like a slice of records.
func TestShadowProperty(t *testing.T) {
	f := newFile(t, 8)
	var shadow [][]byte
	prop := func(vals []uint64) bool {
		for _, v := range vals {
			r := make([]byte, 8)
			binary.LittleEndian.PutUint64(r, v)
			if _, err := f.Append(r); err != nil {
				return false
			}
			shadow = append(shadow, r)
		}
		if f.Count() != int64(len(shadow)) {
			return false
		}
		for i, want := range shadow {
			got, err := f.Get(int64(i))
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// updateStore is a MemStore that records which pages were read plainly, read
// for update and written.
type updateStore struct {
	*pagestore.MemStore
	reads, updates, writes []int64
}

func (s *updateStore) WritePage(n int64, p []byte) error {
	s.writes = append(s.writes, n)
	return s.MemStore.WritePage(n, p)
}

func (s *updateStore) ReadPage(n int64, p []byte) error {
	s.reads = append(s.reads, n)
	return s.MemStore.ReadPage(n, p)
}

func (s *updateStore) ReadPageForUpdate(n int64, p []byte) error {
	s.updates = append(s.updates, n)
	return s.MemStore.ReadPage(n, p)
}

// TestOpenForAppendReadsForUpdate: the one page an append rewrites — the tail
// — is read for update and never plainly; the meta page, which nothing
// rewrites, is read plainly and never written again; an append that opens a
// new page reads that page for update too. Open itself reads plainly.
func TestOpenForAppendReadsForUpdate(t *testing.T) {
	st := &updateStore{MemStore: pagestore.NewMemStore(512)}
	if _, err := Create(st, 100); err != nil {
		t.Fatal(err)
	}
	meta := make([]byte, 512)
	st.MemStore.ReadPage(0, meta)
	for i := 0; i < 12; i++ { // 5 records per page: tail pages full, partial and fresh
		st.reads, st.updates, st.writes = nil, nil, nil
		f, err := OpenForAppend(st)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Append(rec(100, byte(i))); err != nil {
			t.Fatal(err)
		}
		var want []int64
		if i > 0 {
			want = append(want, 1+int64(i-1)/5) // the tail as Open found it
		}
		if i%5 == 0 {
			want = append(want, 1+int64(i)/5) // full (or no) tail: the page the append allocated
		}
		if !slices.Equal(st.reads, []int64{0}) || !slices.Equal(st.updates, want) ||
			!slices.Equal(st.writes, want[len(want)-1:]) {
			t.Fatalf("append %d read %v plainly and %v for update and wrote %v, want [0], %v and %v",
				i, st.reads, st.updates, st.writes, want, want[len(want)-1:])
		}
	}
	after := make([]byte, 512)
	st.MemStore.ReadPage(0, after)
	if !bytes.Equal(meta, after) {
		t.Fatal("appends rewrote the meta page")
	}
	st.reads, st.updates = nil, nil
	f, err := Open(st)
	if err != nil || f.Count() != 12 {
		t.Fatalf("Open: %v, count %d", err, f.Count())
	}
	if len(st.updates) != 0 {
		t.Fatalf("Open read %v for update", st.updates)
	}
	for i := int64(0); i < 12; i++ {
		if got, err := f.Get(i); err != nil || !bytes.Equal(got, rec(100, byte(i))) {
			t.Fatalf("record %d = %v, %v", i, got, err)
		}
	}
}

// TestEmptyTailIsReused: an appender that aborts after its AllocPage leaves an
// allocated, empty last page (stores do not undo growth). The file's count
// must not include it, and the next append fills its first slot instead of
// allocating again.
func TestEmptyTailIsReused(t *testing.T) {
	st := pagestore.NewMemStore(512)
	f, _ := Create(st, 100)
	for i := 0; i < 5; i++ { // exactly one full page
		f.Append(rec(100, byte(i)))
	}
	st.AllocPage() // the aborted appender's page
	f, err := Open(st)
	if err != nil || f.Count() != 5 {
		t.Fatalf("Open over an empty tail: count %d, %v; want 5", f.Count(), err)
	}
	if n, err := f.Append(rec(100, 5)); err != nil || n != 5 {
		t.Fatalf("Append = %d, %v", n, err)
	}
	if np, _ := st.NumPages(); np != 3 {
		t.Fatalf("append over an empty tail left %d pages, want 3", np)
	}
	f, _ = Open(st)
	if got, err := f.Get(5); f.Count() != 6 || err != nil || !bytes.Equal(got, rec(100, 5)) {
		t.Fatalf("after reuse: count %d, record 5 = %v, %v", f.Count(), got, err)
	}
}

// TestOpenRejectsVersion1: a file written by the version-1 layout (count in
// the meta page, records without used flags) is refused by name rather than
// read as empty.
func TestOpenRejectsVersion1(t *testing.T) {
	st := pagestore.NewMemStore(512)
	st.AllocPage()
	st.AllocPage()
	meta := make([]byte, 512)
	le := binary.LittleEndian
	le.PutUint32(meta[0:], 0x52454331) // "REC1"
	le.PutUint32(meta[4:], 100)
	le.PutUint64(meta[8:], 3)
	st.WritePage(0, meta)
	if _, err := Open(st); !errors.Is(err, ErrOldFormat) {
		t.Fatalf("Open of a version-1 image: %v, want ErrOldFormat", err)
	}
	if _, err := OpenForAppend(st); !errors.Is(err, ErrOldFormat) {
		t.Fatalf("OpenForAppend of a version-1 image: %v, want ErrOldFormat", err)
	}
}

// A handle opened with OpenForAppendFrom borrows its page image from the
// relation's list: Close gives it back poisoned, and the next transaction's
// handle takes the same frame.
func TestAppendHandleBorrowsItsPageFromTheRelation(t *testing.T) {
	st := pagestore.NewMemStore(512)
	if _, err := Create(st, 50); err != nil {
		t.Fatal(err)
	}
	frames := frame.NewList(512)
	var first []byte
	for i := 0; i < 100; i++ {
		f, err := OpenForAppendFrom(st, &frames)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = f.tail
		} else if &f.tail[0] != &first[0] {
			t.Fatal("every handle must take the frame the last one gave back")
		}
		if n, err := f.Append(rec(50, byte(i))); err != nil || n != int64(i) {
			t.Fatalf("Append = %d, %v", n, err)
		}
		held := f.tail
		f.Close()
		if !bytes.Equal(held, bytes.Repeat([]byte{frame.Poison}, 512)) {
			t.Fatal("a page image held past Close must read poison")
		}
	}
	if frames.Free() != 1 {
		t.Fatalf("100 handles left %d frames on the list, want 1", frames.Free())
	}
	f, err := Open(st)
	if err != nil || f.Count() != 100 {
		t.Fatalf("Count = %d, %v", f.Count(), err)
	}
	if got, err := f.Get(99); err != nil || !bytes.Equal(got, rec(50, 99)) {
		t.Fatalf("Get(99) = %v, %v", got, err)
	}
	// An open that fails gives its frame back too.
	if _, err := OpenForAppendFrom(pagestore.NewMemStore(512), &frames); err == nil {
		t.Fatal("an empty store must not open")
	}
	if frames.Free() != 1 {
		t.Fatalf("a failed open left %d frames on the list, want 1", frames.Free())
	}
}
