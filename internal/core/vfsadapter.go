package core

import (
	"repro/internal/vfs"
)

// FSAdapter presents the transaction-enabled kernel as an ordinary
// vfs.FileSystem: every call goes through a Process, paying exactly the
// costs a non-transaction application pays on a kernel with embedded
// transaction support. Running the same workload on a plain lfs.FS and on
// this adapter is the paper's Figure 5 comparison ("non-transaction
// applications pay only a few instructions in accessing buffers to
// determine that transaction locks are unnecessary").
type FSAdapter struct {
	m    *Manager
	proc *Process
}

var _ vfs.FileSystem = (*FSAdapter)(nil)

// AsFileSystem wraps the manager's file system for non-transaction use.
func (m *Manager) AsFileSystem() *FSAdapter {
	return &FSAdapter{m: m, proc: m.NewProcess()}
}

// Name implements vfs.FileSystem.
func (a *FSAdapter) Name() string { return "lfs+txn" }

// BlockSize implements vfs.FileSystem.
func (a *FSAdapter) BlockSize() int { return a.m.fs.BlockSize() }

// Create implements vfs.FileSystem.
func (a *FSAdapter) Create(path string) (vfs.File, error) {
	f, err := a.m.Create(path)
	if err != nil {
		return nil, err
	}
	return &adapterFile{a: a, f: f}, nil
}

// Open implements vfs.FileSystem.
func (a *FSAdapter) Open(path string) (vfs.File, error) {
	f, err := a.m.Open(path)
	if err != nil {
		return nil, err
	}
	return &adapterFile{a: a, f: f}, nil
}

// Remove implements vfs.FileSystem.
func (a *FSAdapter) Remove(path string) error { return a.m.fs.Remove(path) }

// Mkdir implements vfs.FileSystem.
func (a *FSAdapter) Mkdir(path string) error { return a.m.fs.Mkdir(path) }

// ReadDir implements vfs.FileSystem.
func (a *FSAdapter) ReadDir(path string) ([]vfs.DirEntry, error) { return a.m.fs.ReadDir(path) }

// Stat implements vfs.FileSystem.
func (a *FSAdapter) Stat(path string) (vfs.FileInfo, error) { return a.m.fs.Stat(path) }

// Sync implements vfs.FileSystem.
func (a *FSAdapter) Sync() error { return a.m.fs.Sync() }

// adapterFile routes reads and writes through the process (and therefore
// through the kernel transaction manager's lock-necessity check).
type adapterFile struct {
	a *FSAdapter
	f *File
}

var _ vfs.File = (*adapterFile)(nil)

func (af *adapterFile) ID() vfs.FileID { return af.f.ID() }

func (af *adapterFile) ReadAt(p []byte, off int64) (int, error) {
	return af.a.proc.Read(af.f, p, off)
}

func (af *adapterFile) WriteAt(p []byte, off int64) (int, error) {
	return af.a.proc.Write(af.f, p, off)
}

func (af *adapterFile) Size() (int64, error) { return af.f.Size() }

func (af *adapterFile) Truncate(size int64) error { return af.f.Truncate(size) }

func (af *adapterFile) Sync() error { return af.f.Sync() }

func (af *adapterFile) Close() error { return af.f.Close() }
