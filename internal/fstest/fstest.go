// Package fstest is a conformance suite for vfs.FileSystem implementations.
// The same behavioural contract is asserted against the log-structured file
// system, the read-optimized file system, and the embedded transaction
// manager's adapter, so the three stay interchangeable under every workload
// in this repository. Besides the plain contract it pins the namespace's
// failure behaviour: a Mkdir or Create that fails leaves nothing behind
// (FailedCreateLeavesNothing). script_test.go runs one long seed-derived
// namespace script against all three and an in-memory model.
package fstest

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/vfs"
)

// Factory builds a fresh, empty file system for each subtest.
type Factory func(t *testing.T) vfs.FileSystem

// Run executes the whole conformance suite.
func Run(t *testing.T, name string, factory Factory) {
	t.Helper()
	tests := []struct {
		name string
		fn   func(t *testing.T, fsys vfs.FileSystem)
	}{
		{"CreateReadWrite", testCreateReadWrite},
		{"PartialAndOverlappingWrites", testPartialWrites},
		{"ReadBounds", testReadBounds},
		{"SizeAndTruncate", testSizeAndTruncate},
		{"Directories", testDirectories},
		{"PathErrors", testPathErrors},
		{"RemoveSemantics", testRemoveSemantics},
		{"FailedCreateLeavesNothing", testFailedCreate},
		{"HandleLifecycle", testHandleLifecycle},
		{"ManyFiles", testManyFiles},
		{"LargeFile", testLargeFile},
		{"DeepNesting", testDeepNesting},
		{"SyncIsSafeAnytime", testSync},
		{"StableIDs", testStableIDs},
	}
	for _, tc := range tests {
		t.Run(name+"/"+tc.name, func(t *testing.T) {
			tc.fn(t, factory(t))
		})
	}
}

func write(t *testing.T, fsys vfs.FileSystem, path string, data []byte) {
	t.Helper()
	f, err := fsys.Create(path)
	if err != nil {
		t.Fatalf("Create(%s): %v", path, err)
	}
	defer f.Close()
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("WriteAt(%s): %v", path, err)
	}
}

func read(t *testing.T, fsys vfs.FileSystem, path string) []byte {
	t.Helper()
	f, err := fsys.Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	defer f.Close()
	sz, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, sz)
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatal(err)
	}
	return out
}

func pat(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*11 + seed
	}
	return b
}

func testCreateReadWrite(t *testing.T, fsys vfs.FileSystem) {
	data := pat(10000, 1)
	write(t, fsys, "/f", data)
	if got := read(t, fsys, "/f"); !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	if _, err := fsys.Create("/f"); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("duplicate create: %v", err)
	}
}

func testPartialWrites(t *testing.T, fsys vfs.FileSystem) {
	bs := fsys.BlockSize()
	data := pat(3*bs, 2)
	write(t, fsys, "/p", data)
	f, err := fsys.Open("/p")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Straddle a block boundary.
	patch := pat(100, 99)
	off := int64(bs - 50)
	if _, err := f.WriteAt(patch, off); err != nil {
		t.Fatal(err)
	}
	copy(data[off:], patch)
	// Overlapping rewrite.
	patch2 := pat(200, 77)
	if _, err := f.WriteAt(patch2, off-100); err != nil {
		t.Fatal(err)
	}
	copy(data[off-100:], patch2)
	if got := read(t, fsys, "/p"); !bytes.Equal(got, data) {
		t.Fatal("partial writes diverged")
	}
}

func testReadBounds(t *testing.T, fsys vfs.FileSystem) {
	write(t, fsys, "/r", []byte("hello"))
	f, _ := fsys.Open("/r")
	defer f.Close()
	buf := make([]byte, 10)
	n, err := f.ReadAt(buf, 0)
	if err != nil || n != 5 {
		t.Fatalf("short read = %d, %v", n, err)
	}
	n, err = f.ReadAt(buf, 5)
	if err != nil || n != 0 {
		t.Fatalf("read at EOF = %d, %v", n, err)
	}
	n, err = f.ReadAt(buf, 100)
	if err != nil || n != 0 {
		t.Fatalf("read past EOF = %d, %v", n, err)
	}
	if _, err := f.ReadAt(buf, -1); err == nil {
		t.Fatal("negative offset should fail")
	}
}

func testSizeAndTruncate(t *testing.T, fsys vfs.FileSystem) {
	bs := fsys.BlockSize()
	write(t, fsys, "/t", pat(2*bs+100, 3))
	f, _ := fsys.Open("/t")
	defer f.Close()
	if sz, _ := f.Size(); sz != int64(2*bs+100) {
		t.Fatalf("size = %d", sz)
	}
	if err := f.Truncate(int64(bs / 2)); err != nil {
		t.Fatal(err)
	}
	if sz, _ := f.Size(); sz != int64(bs/2) {
		t.Fatalf("size after shrink = %d", sz)
	}
	if err := f.Truncate(int64(bs * 2)); err != nil {
		t.Fatal(err)
	}
	tail := make([]byte, bs)
	if _, err := f.ReadAt(tail, int64(bs)); err != nil {
		t.Fatal(err)
	}
	for _, v := range tail {
		if v != 0 {
			t.Fatal("regrown region must be zeros")
		}
	}
	if err := f.Truncate(-1); err == nil {
		t.Fatal("negative truncate should fail")
	}
}

func testDirectories(t *testing.T, fsys vfs.FileSystem) {
	for _, d := range []string{"/a", "/a/b", "/c"} {
		if err := fsys.Mkdir(d); err != nil {
			t.Fatalf("Mkdir(%s): %v", d, err)
		}
	}
	write(t, fsys, "/a/b/f1", []byte("1"))
	write(t, fsys, "/a/f2", []byte("2"))
	entries, err := fsys.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name != "a" || entries[1].Name != "c" {
		t.Fatalf("root = %+v", entries)
	}
	entries, err = fsys.ReadDir("/a")
	if err != nil || len(entries) != 2 {
		t.Fatalf("/a = %+v, %v", entries, err)
	}
	if !entries[0].IsDir || entries[1].IsDir {
		t.Fatalf("IsDir flags wrong: %+v", entries)
	}
	info, err := fsys.Stat("/a/b")
	if err != nil || !info.IsDir {
		t.Fatalf("Stat dir = %+v, %v", info, err)
	}
	info, err = fsys.Stat("/a/f2")
	if err != nil || info.IsDir || info.Size != 1 {
		t.Fatalf("Stat file = %+v, %v", info, err)
	}
	// Opening a directory as a file fails; listing a file fails.
	if _, err := fsys.Open("/a"); !errors.Is(err, vfs.ErrIsDir) {
		t.Fatalf("Open(dir): %v", err)
	}
	if _, err := fsys.ReadDir("/a/f2"); !errors.Is(err, vfs.ErrNotDir) {
		t.Fatalf("ReadDir(file): %v", err)
	}
}

func testPathErrors(t *testing.T, fsys vfs.FileSystem) {
	if _, err := fsys.Open("/missing"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("Open missing: %v", err)
	}
	if _, err := fsys.Stat("/missing/deeper"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("Stat through missing: %v", err)
	}
	if _, err := fsys.Create("/no/such/dir/f"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("Create in missing dir: %v", err)
	}
	for _, bad := range []string{"", "/a/../b"} {
		if _, err := fsys.Open(bad); !errors.Is(err, vfs.ErrBadPath) {
			t.Fatalf("Open(%q): %v", bad, err)
		}
	}
	// Creating a file under a file fails.
	write(t, fsys, "/plain", []byte("x"))
	if _, err := fsys.Create("/plain/child"); err == nil {
		t.Fatal("create under a file should fail")
	}
}

func testRemoveSemantics(t *testing.T, fsys vfs.FileSystem) {
	write(t, fsys, "/f", pat(5000, 4))
	if err := fsys.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Stat("/f"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatal("file should be gone")
	}
	if err := fsys.Remove("/f"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("double remove: %v", err)
	}
	fsys.Mkdir("/d")
	write(t, fsys, "/d/x", []byte("x"))
	if err := fsys.Remove("/d"); !errors.Is(err, vfs.ErrNotEmpty) {
		t.Fatalf("remove non-empty dir: %v", err)
	}
	if err := fsys.Remove("/d/x"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove("/d"); err != nil {
		t.Fatal(err)
	}
	// Name reuse after removal.
	write(t, fsys, "/f", []byte("new"))
	if got := read(t, fsys, "/f"); string(got) != "new" {
		t.Fatal("name reuse broken")
	}
}

func testFailedCreate(t *testing.T, fsys vfs.FileSystem) {
	if err := fsys.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Mkdir("/a"); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("duplicate mkdir: %v", err)
	}
	f, err := fsys.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{7}, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Create("/f"); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := fsys.Sync(); err != nil {
		t.Fatalf("sync after the failed attempts: %v", err)
	}
	if got, want := read(t, fsys, "/f"), append(make([]byte, 10), 7); !bytes.Equal(got, want) {
		t.Fatalf("read back % x, want % x", got, want)
	}
}

func testHandleLifecycle(t *testing.T, fsys vfs.FileSystem) {
	write(t, fsys, "/h", []byte("x"))
	f, err := fsys.Open("/h")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); !errors.Is(err, vfs.ErrFileClosed) {
		t.Fatalf("double close: %v", err)
	}
	if _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, vfs.ErrFileClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if _, err := f.WriteAt([]byte("y"), 0); !errors.Is(err, vfs.ErrFileClosed) {
		t.Fatalf("write after close: %v", err)
	}
	// Two handles to the same file observe each other's writes.
	a, _ := fsys.Open("/h")
	b, _ := fsys.Open("/h")
	defer a.Close()
	defer b.Close()
	if _, err := a.WriteAt([]byte("Z"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := b.ReadAt(buf, 0); err != nil || buf[0] != 'Z' {
		t.Fatalf("shared handle visibility: %q, %v", buf, err)
	}
}

func testManyFiles(t *testing.T, fsys vfs.FileSystem) {
	fsys.Mkdir("/m")
	const n = 120
	for i := 0; i < n; i++ {
		write(t, fsys, fmt.Sprintf("/m/f%03d", i), pat(64+i, byte(i)))
	}
	entries, err := fsys.ReadDir("/m")
	if err != nil || len(entries) != n {
		t.Fatalf("ReadDir = %d entries, %v", len(entries), err)
	}
	for i := 0; i < n; i += 13 {
		got := read(t, fsys, fmt.Sprintf("/m/f%03d", i))
		if !bytes.Equal(got, pat(64+i, byte(i))) {
			t.Fatalf("file %d corrupted", i)
		}
	}
}

func testLargeFile(t *testing.T, fsys vfs.FileSystem) {
	// Past the direct-pointer range of the LFS inode (48 KB) and across
	// many extents for the FFS.
	data := pat(300*1024, 9)
	write(t, fsys, "/large", data)
	if err := fsys.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := read(t, fsys, "/large"); !bytes.Equal(got, data) {
		t.Fatal("large file round trip failed")
	}
}

func testDeepNesting(t *testing.T, fsys vfs.FileSystem) {
	path := ""
	for i := 0; i < 12; i++ {
		path = fmt.Sprintf("%s/d%d", path, i)
		if err := fsys.Mkdir(path); err != nil {
			t.Fatalf("Mkdir(%s): %v", path, err)
		}
	}
	write(t, fsys, path+"/leaf", []byte("bottom"))
	if got := read(t, fsys, path+"/leaf"); string(got) != "bottom" {
		t.Fatal("deep path round trip failed")
	}
}

func testSync(t *testing.T, fsys vfs.FileSystem) {
	if err := fsys.Sync(); err != nil {
		t.Fatalf("sync of empty fs: %v", err)
	}
	write(t, fsys, "/s", pat(9000, 5))
	if err := fsys.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Sync(); err != nil {
		t.Fatalf("idempotent sync: %v", err)
	}
	if got := read(t, fsys, "/s"); !bytes.Equal(got, pat(9000, 5)) {
		t.Fatal("sync corrupted data")
	}
}

func testStableIDs(t *testing.T, fsys vfs.FileSystem) {
	write(t, fsys, "/id", []byte("x"))
	a, _ := fsys.Open("/id")
	b, _ := fsys.Open("/id")
	defer a.Close()
	defer b.Close()
	if a.ID() != b.ID() {
		t.Fatal("two handles to one file must share an ID")
	}
	write(t, fsys, "/other", []byte("y"))
	c, _ := fsys.Open("/other")
	defer c.Close()
	if c.ID() == a.ID() {
		t.Fatal("distinct files must have distinct IDs")
	}
	info, _ := fsys.Stat("/id")
	if info.ID != a.ID() {
		t.Fatal("Stat ID must match handle ID")
	}
}
