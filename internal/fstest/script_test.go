package fstest_test

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/ffs"
	"repro/internal/lfs"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// cache is small so that eviction (into the write-behind stage, ufs.Stage, on
// both file systems) is part of every test.
const cache = 48

// targets are the three implementations of vfs.FileSystem: the
// read-optimized file system, the log-structured one and the embedded
// transaction manager's adapter over it. mount formats the device or mounts
// what it holds, and returns the file system with its fsck.
var targets = []struct {
	name  string
	mount func(t *testing.T, dev *disk.Device, clk *sim.Clock, format bool) (vfs.FileSystem, func() error)
}{
	{"ffs", func(t *testing.T, dev *disk.Device, clk *sim.Clock, format bool) (vfs.FileSystem, func() error) {
		open := ffs.Mount
		if format {
			open = ffs.Format
		}
		fsys, err := open(dev, clk, ffs.Options{CacheBlocks: cache})
		if err != nil {
			t.Fatal(err)
		}
		return fsys, func() error {
			rep, err := fsys.Fsck()
			if err == nil && !rep.OK() {
				err = fmt.Errorf("%+v", rep)
			}
			return err
		}
	}},
	{"lfs", func(t *testing.T, dev *disk.Device, clk *sim.Clock, format bool) (vfs.FileSystem, func() error) {
		fsys := openLFS(t, dev, clk, cache, format)
		return fsys, func() error { return fsckLFS(fsys) }
	}},
	{"lfs+txn", func(t *testing.T, dev *disk.Device, clk *sim.Clock, format bool) (vfs.FileSystem, func() error) {
		fsys := openLFS(t, dev, clk, cache, format)
		return core.New(fsys, clk, core.Options{}).AsFileSystem(), func() error { return fsckLFS(fsys) }
	}},
}

// TestScriptedNamespace runs one seed-derived sequence of namespace and file
// operations against the read-optimized file system, the log-structured one
// and the embedded transaction manager's adapter, comparing every outcome
// with an in-memory model; then syncs, mounts the device again, compares the
// whole tree once more and requires a clean fsck. The fixed cases of
// fstest.Run exercise each operation alone; this is the guard on what each
// file system supplies underneath the shared layer (inode allocation, free
// and update ordering, FFS's padded directories, LFS's deletion records)
// when the operations come in combination.
func TestScriptedNamespace(t *testing.T) {
	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			clk := sim.NewClock()
			dev := disk.New(sim.SmallModel(), clk)
			fsys, fsck := tg.mount(t, dev, clk, true)
			s := &script{t: t, fsys: fsys, rng: sim.NewRNG(19), root: &node{dir: true, kids: map[string]*node{}}}
			for s.step = 0; s.step < 2000; s.step++ {
				s.op()
			}
			for _, h := range s.open {
				s.check("Close", h.path, h.f.Close(), nil)
			}
			s.check("Sync", "", s.fsys.Sync(), nil)
			// Once on the mount that ran the script (its in-memory allocation
			// state against what the tree references), once on a fresh mount
			// of the same device.
			verify := func(mounted string) {
				s.compareTree("", s.root)
				if err := fsck(); err != nil {
					t.Fatalf("fsck on %s: %v", mounted, err)
				}
			}
			verify("the script's mount")
			s.fsys, fsck = tg.mount(t, dev, clk, false)
			verify("a second mount")
		})
	}
}

func openLFS(t *testing.T, dev *disk.Device, clk *sim.Clock, cache int, format bool) *lfs.FS {
	open := lfs.Mount
	if format {
		open = lfs.Format
	}
	fsys, err := open(dev, clk, lfs.Options{CacheBlocks: cache})
	if err != nil {
		t.Fatal(err)
	}
	return fsys
}

func fsckLFS(fsys *lfs.FS) error {
	rep, err := fsys.Fsck()
	if err == nil && !rep.OK() {
		err = errors.New(strings.Join(rep.Problems, "; "))
	}
	return err
}

// node is the model's file or directory.
type node struct {
	dir   bool
	kids  map[string]*node
	data  []byte
	opens int
}

type handle struct {
	f    vfs.File
	n    *node
	path string // as opened; for messages only
}

type script struct {
	t    *testing.T
	fsys vfs.FileSystem
	rng  *sim.RNG
	root *node
	open []handle
	step int
}

var errOther = errors.New("an error that is none of the vfs sentinels")

// class reduces an error to the vfs sentinel it wraps.
func class(err error) error {
	if err == nil {
		return nil
	}
	for _, s := range []error{vfs.ErrNotExist, vfs.ErrExist, vfs.ErrIsDir, vfs.ErrNotDir,
		vfs.ErrNotEmpty, vfs.ErrBadPath, vfs.ErrFileClosed} {
		if errors.Is(err, s) {
			return s
		}
	}
	return errOther
}

func (s *script) check(op, arg string, got, want error) {
	s.t.Helper()
	if class(got) != want {
		s.t.Fatalf("step %d: %s(%s) = %v, model says %v", s.step, op, arg, got, want)
	}
}

// walk resolves components from the model's root and also returns every
// directory passed through, the result included.
func (s *script) walk(parts []string) (*node, error) {
	n := s.root
	for _, name := range parts {
		if !n.dir {
			return nil, vfs.ErrNotDir
		}
		if n = n.kids[name]; n == nil {
			return nil, vfs.ErrNotExist
		}
	}
	return n, nil
}

func (s *script) lookup(path string) (*node, error) {
	parts, ok := vfs.SplitPath(path)
	if !ok {
		return nil, vfs.ErrBadPath
	}
	return s.walk(parts)
}

func (s *script) parent(path string) (dir *node, base string, err error) {
	parts, base, ok := vfs.SplitDirBase(path)
	if !ok {
		return nil, "", vfs.ErrBadPath
	}
	if dir, err = s.walk(parts); err == nil && !dir.dir {
		err = vfs.ErrNotDir
	}
	return dir, base, err
}

// path walks a random way down what exists and, fresh times in ten, adds one
// more component out of six names: names collide, directories fill and
// empty, and every outcome — success included — is common.
func (s *script) path(fresh int) string {
	switch s.rng.Intn(40) {
	case 0:
		return ""
	case 1:
		return "/"
	case 2:
		return "/a/../b"
	}
	p, n := "", s.root
	for depth := s.rng.Intn(4); depth > 0 && len(n.kids) > 0; depth-- {
		names := make([]string, 0, len(n.kids))
		for name := range n.kids {
			names = append(names, name)
		}
		sort.Strings(names)
		name := names[s.rng.Intn(len(names))]
		p, n = p+"/"+name, n.kids[name]
	}
	if p == "" || s.rng.Intn(10) < fresh {
		p += "/" + string(rune('a'+s.rng.Intn(6)))
	}
	return p
}

func (s *script) op() {
	switch r := s.rng.Intn(86); {
	case r < 15:
		s.create()
	case r < 27:
		s.mkdir()
	case r < 45:
		s.openFile()
	case r < 55:
		s.handleIO()
	case r < 68:
		s.remove()
	case r < 76:
		s.stat()
	case r < 83:
		s.readDir()
	default:
		s.check("Sync", "", s.fsys.Sync(), nil)
	}
}

// keep holds the handle open for later steps one time in three (so that
// Remove meets open files), and otherwise writes through it and closes it.
func (s *script) keep(h handle) {
	h.n.opens++
	s.open = append(s.open, h)
	if s.rng.Intn(3) > 0 {
		s.io(len(s.open) - 1)
		s.closeHandle(len(s.open) - 1)
	}
}

func (s *script) closeHandle(i int) {
	h := s.open[i]
	s.check("Close", h.path, h.f.Close(), nil)
	h.n.opens--
	s.open = append(s.open[:i], s.open[i+1:]...)
}

func (s *script) create() {
	p := s.path(9)
	dir, base, want := s.parent(p)
	if want == nil && dir.kids[base] != nil {
		want = vfs.ErrExist
	}
	f, err := s.fsys.Create(p)
	s.check("Create", p, err, want)
	if err == nil {
		n := &node{}
		dir.kids[base] = n
		s.keep(handle{f, n, p})
	}
}

func (s *script) mkdir() {
	p := s.path(9)
	dir, base, want := s.parent(p)
	if want == nil && dir.kids[base] != nil {
		want = vfs.ErrExist
	}
	s.check("Mkdir", p, s.fsys.Mkdir(p), want)
	if want == nil {
		dir.kids[base] = &node{dir: true, kids: map[string]*node{}}
	}
}

func (s *script) openFile() {
	p := s.path(2)
	n, want := s.lookup(p)
	if want == nil && n.dir {
		want = vfs.ErrIsDir
	}
	f, err := s.fsys.Open(p)
	s.check("Open", p, err, want)
	if err == nil {
		s.keep(handle{f, n, p})
	}
}

// handleIO works on a handle kept open by an earlier step, or closes it.
func (s *script) handleIO() {
	if len(s.open) == 0 {
		return
	}
	i := s.rng.Intn(len(s.open))
	if s.rng.Intn(3) == 0 {
		s.closeHandle(i)
		return
	}
	s.io(i)
}

// io does one write, truncate or size check through handle i, then reads the
// whole file back.
func (s *script) io(i int) {
	h := s.open[i]
	bs := s.fsys.BlockSize()
	switch s.rng.Intn(4) {
	case 0, 1:
		// Mostly within the first few blocks; one write in five lands past
		// the LFS inode's direct range (12 blocks). Either may leave a hole.
		off := s.rng.Intn(3 * bs)
		if s.rng.Intn(5) == 0 {
			off += 12 * bs
		}
		data := make([]byte, 1+s.rng.Intn(2*bs))
		for j := range data {
			data[j] = byte(s.step + j)
		}
		_, err := h.f.WriteAt(data, int64(off))
		s.check("WriteAt", h.path, err, nil)
		if grow := off + len(data) - len(h.n.data); grow > 0 {
			h.n.data = append(h.n.data, make([]byte, grow)...)
		}
		copy(h.n.data[off:], data)
	case 2:
		size := s.rng.Intn(len(h.n.data) + bs) // may grow the file by a hole
		s.check("Truncate", h.path, h.f.Truncate(int64(size)), nil)
		if size <= len(h.n.data) {
			h.n.data = h.n.data[:size:size]
		} else {
			h.n.data = append(h.n.data, make([]byte, size-len(h.n.data))...)
		}
	case 3:
		size, err := h.f.Size()
		if err != nil || size != int64(len(h.n.data)) {
			s.t.Fatalf("step %d: Size(%s) = %d, %v; model says %d", s.step, h.path, size, err, len(h.n.data))
		}
	}
	got := make([]byte, len(h.n.data)+1)
	n, err := h.f.ReadAt(got, 0)
	if err != nil || !bytes.Equal(got[:n], h.n.data) {
		s.t.Fatalf("step %d: ReadAt(%s) = %d bytes, %v; differs from the model's %d", s.step, h.path, n, err, len(h.n.data))
	}
}

func (s *script) remove() {
	p := s.path(2)
	dir, base, want := s.parent(p)
	if want == nil {
		switch n := dir.kids[base]; {
		case n == nil:
			want = vfs.ErrNotExist
		case n.dir && len(n.kids) > 0:
			want = vfs.ErrNotEmpty
		case n.opens > 0:
			want = errOther
		}
	}
	s.check("Remove", p, s.fsys.Remove(p), want)
	if want == nil {
		delete(dir.kids, base)
	}
}

func (s *script) stat() {
	p := s.path(2)
	n, want := s.lookup(p)
	info, err := s.fsys.Stat(p)
	s.check("Stat", p, err, want)
	if err != nil {
		return
	}
	// A directory's size is its file system's business (FFS pads it).
	if info.IsDir != n.dir || (!n.dir && info.Size != int64(len(n.data))) {
		s.t.Fatalf("step %d: Stat(%s) = %+v; model says dir=%v size=%d", s.step, p, info, n.dir, len(n.data))
	}
}

func (s *script) readDir() {
	p := s.path(2)
	n, want := s.lookup(p)
	if want == nil && !n.dir {
		want = vfs.ErrNotDir
	}
	entries, err := s.fsys.ReadDir(p)
	s.check("ReadDir", p, err, want)
	if err == nil {
		s.compareListing(p, entries, n)
	}
}

func (s *script) compareListing(path string, entries []vfs.DirEntry, n *node) {
	var got, want []string
	for _, e := range entries {
		got = append(got, fmt.Sprintf("%s dir=%v", e.Name, e.IsDir))
	}
	for name, kid := range n.kids {
		want = append(want, fmt.Sprintf("%s dir=%v", name, kid.dir))
	}
	sort.Strings(want)
	if strings.Join(got, ", ") != strings.Join(want, ", ") {
		s.t.Fatalf("step %d: ReadDir(%s) = [%s]; model says [%s]", s.step, path, strings.Join(got, ", "), strings.Join(want, ", "))
	}
}

// compareTree checks every directory listing, file size and file byte under
// path against the model.
func (s *script) compareTree(path string, n *node) {
	if n.dir {
		entries, err := s.fsys.ReadDir(path + "/")
		if err != nil {
			s.t.Fatalf("ReadDir(%s): %v", path, err)
		}
		s.compareListing(path, entries, n)
		for name, kid := range n.kids {
			s.compareTree(path+"/"+name, kid)
		}
		return
	}
	f, err := s.fsys.Open(path)
	if err != nil {
		s.t.Fatalf("Open(%s): %v", path, err)
	}
	defer f.Close()
	got := make([]byte, len(n.data)+1)
	m, err := f.ReadAt(got, 0)
	if err != nil || !bytes.Equal(got[:m], n.data) {
		s.t.Fatalf("%s: read %d bytes, %v; differs from the model's %d", path, m, err, len(n.data))
	}
}
