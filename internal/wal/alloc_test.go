package wal

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/vfs"
)

// The tests in this file pin the segmented log's hot path — AppendCommit,
// group-commit Force on the active segment, and forces that complete
// blocks — to zero steady-state allocations, backing the //simlint:noalloc
// annotations with a dynamic check. They run against an in-memory file
// system whose WriteAt never allocates (capacity is reserved up front), so
// the numbers isolate the WAL layer's own behaviour from the simulated disk
// that the other tests exercise.

// memFS is a minimal vfs.FileSystem for the allocation tests and the fuzzer:
// flat namespace under "/", no directories, Sync is a no-op.
type memFS struct {
	files map[string]*memFile
	next  uint64
}

func newMemFS() *memFS { return &memFS{files: map[string]*memFile{}} }

// memFileCap is reserved per file so steady-state WriteAt never grows the
// backing array. The tests write well under 1 MiB per file.
const memFileCap = 4 << 20

type memFile struct {
	id   vfs.FileID
	data []byte
}

func (fs *memFS) Name() string { return "memfs" }

func (fs *memFS) Create(path string) (vfs.File, error) {
	if _, ok := fs.files[path]; ok {
		return nil, fmt.Errorf("memfs: create %s: %w", path, vfs.ErrExist)
	}
	fs.next++
	f := &memFile{id: vfs.FileID(fs.next), data: make([]byte, 0, memFileCap)}
	fs.files[path] = f
	return f, nil
}

func (fs *memFS) Open(path string) (vfs.File, error) {
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("memfs: open %s: %w", path, vfs.ErrNotExist)
	}
	return f, nil
}

func (fs *memFS) Remove(path string) error {
	if _, ok := fs.files[path]; !ok {
		return fmt.Errorf("memfs: remove %s: %w", path, vfs.ErrNotExist)
	}
	delete(fs.files, path)
	return nil
}

func (fs *memFS) Mkdir(string) error { return nil }

// ReadDir lists every file, in no order: the namespace is flat, so every
// path is "/name".
func (fs *memFS) ReadDir(string) ([]vfs.DirEntry, error) {
	var out []vfs.DirEntry
	for path := range fs.files {
		out = append(out, vfs.DirEntry{Name: strings.TrimPrefix(path, "/")})
	}
	return out, nil
}

func (fs *memFS) Stat(path string) (vfs.FileInfo, error) {
	f, ok := fs.files[path]
	if !ok {
		return vfs.FileInfo{}, fmt.Errorf("memfs: stat %s: %w", path, vfs.ErrNotExist)
	}
	return vfs.FileInfo{Name: path, ID: f.id, Size: int64(len(f.data))}, nil
}

func (fs *memFS) Sync() error { return nil }

func (fs *memFS) BlockSize() int { return BlockSize }

func (f *memFile) ID() vfs.FileID { return f.id }

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(f.data)) {
		return 0, nil
	}
	return copy(p, f.data[off:]), nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	if end := off + int64(len(p)); end > int64(len(f.data)) {
		if end <= int64(cap(f.data)) {
			f.data = f.data[:end]
		} else {
			f.data = append(f.data, make([]byte, end-int64(len(f.data)))...)
		}
	}
	return copy(f.data[off:], p), nil
}

func (f *memFile) Size() (int64, error) { return int64(len(f.data)), nil }

func (f *memFile) Truncate(size int64) error {
	if size <= int64(len(f.data)) {
		f.data = f.data[:size]
	}
	return nil
}

func (f *memFile) Sync() error { return nil }

func (f *memFile) Close() error { return nil }

// newAllocLog builds a Manager on the in-memory fs and pre-sizes every
// reusable buffer the hot path amortizes over (the per-segment payload
// stream, the record-start list, and the block-compose scratch), so
// AllocsPerRun sees the steady state rather than the amortized doubling
// slope.
func newAllocLog(t *testing.T) *Manager {
	t.Helper()
	m, err := Create(newMemFS(), "/log", Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := m.active()
	w.stream = make([]byte, 0, 1<<20)
	w.starts = make([]int64, 0, 1<<16)
	m.blockBuf = make([]byte, 0, 1<<20)
	return m
}

// TestAppendCommitZeroAllocs pins the batched commit append: once the
// per-segment buffers are warm, AppendCommit encodes the record in place
// (no per-record buffer, no per-record CRC hasher) and allocates nothing.
func TestAppendCommitZeroAllocs(t *testing.T) {
	m := newAllocLog(t)
	var txn uint64
	allocs := testing.AllocsPerRun(200, func() {
		txn++
		if _, err := m.AppendCommit(txn); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendCommit allocated %.2f allocs/op, want 0", allocs)
	}
}

// TestGroupCommitForceZeroAllocs pins the group-commit force on the active
// segment: compose the dirty block range into the reusable scratch, write,
// sync — all without allocating.
func TestGroupCommitForceZeroAllocs(t *testing.T) {
	m := newAllocLog(t)
	var txn uint64
	work := func() {
		txn++
		if _, err := m.AppendCommit(txn); err != nil {
			t.Fatal(err)
		}
		if err := m.Force(); err != nil {
			t.Fatal(err)
		}
	}
	work() // cold: creates the segment file
	before := m.Stats().Forces
	allocs := testing.AllocsPerRun(200, work)
	if allocs != 0 {
		t.Fatalf("AppendCommit+Force allocated %.2f allocs/op, want 0", allocs)
	}
	if got := m.Stats().Forces; got == before {
		t.Fatalf("Force never ran during measurement (forces stayed at %d)", got)
	}
}

// TestBlockSpanningForceZeroAllocs drives each force across a block
// boundary, so every run composes a multi-block range — the rewritten tail
// block, the blocks a spanning record fills, a new partial tail — and pins
// that path to zero allocations.
func TestBlockSpanningForceZeroAllocs(t *testing.T) {
	m := newAllocLog(t)
	// An update whose after-image nearly fills one block's payload makes
	// every append+force complete at least one block.
	after := make([]byte, PayloadSize-recFixed-64)
	var txn uint64
	work := func() {
		txn++
		if _, err := m.LogUpdate(txn, 1, int64(txn), 0, nil, after); err != nil {
			t.Fatal(err)
		}
		if err := m.Force(); err != nil {
			t.Fatal(err)
		}
	}
	work() // cold: segment creation and first block
	const runs = 100
	before := m.active().durable / PayloadSize
	allocs := testing.AllocsPerRun(runs, work)
	if allocs != 0 {
		t.Fatalf("block-spanning force allocated %.2f allocs/op, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call besides the measured runs.
	if got := m.active().durable/PayloadSize - before; got < runs {
		t.Fatalf("%d blocks completed over %d forces; each should complete one", got, runs)
	}
}
