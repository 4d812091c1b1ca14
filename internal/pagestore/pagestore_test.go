package pagestore

import (
	"bytes"
	"testing"

	"repro/internal/vfs"
)

// memFile is the least a FileStore needs of a file: bytes in memory.
type memFile struct {
	vfs.File // the methods a FileStore never calls
	data     []byte
}

func (f *memFile) Size() (int64, error) { return int64(len(f.data)), nil }

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(f.data)) {
		return 0, nil
	}
	return copy(p, f.data[off:]), nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	if end := int(off) + len(p); end > len(f.data) {
		if end > cap(f.data) {
			f.data = append(make([]byte, 0, 2*end), f.data...)
		}
		f.data = f.data[:end]
	}
	return copy(f.data[off:], p), nil
}

// AllocPage appends the shared zero page: it allocates nothing itself, and
// what it appends is zero whatever the file's spare capacity held before.
func TestFileStoreAllocPageAllocatesNothing(t *testing.T) {
	f := &memFile{data: bytes.Repeat([]byte{0xDB}, 1<<20)[:0]}
	st := NewFileStore(f, 4096)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := st.AllocPage(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AllocPage allocates %v times, want 0", n)
	}
	np, err := st.NumPages()
	if err != nil || np != 101 {
		t.Fatalf("NumPages = %d, %v; want 101", np, err)
	}
	if !bytes.Equal(f.data, make([]byte, 101*4096)) {
		t.Fatal("allocated pages must be zero")
	}
}

// ReadPage fills the whole buffer: a file that ends inside its last page reads
// as zero-padded even into a buffer that held something else.
func TestFileStoreReadPageFillsTheBuffer(t *testing.T) {
	f := &memFile{data: bytes.Repeat([]byte{7}, 4096+100)}
	st := NewFileStore(f, 4096)
	p := bytes.Repeat([]byte{0xDB}, 4096)
	if err := st.ReadPage(1, p); err != nil {
		t.Fatal(err)
	}
	want := append(bytes.Repeat([]byte{7}, 100), make([]byte, 4096-100)...)
	if !bytes.Equal(p, want) {
		t.Fatalf("a short last page must read zero-padded, got % x … % x", p[:4], p[4092:])
	}
}
