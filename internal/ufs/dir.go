package ufs

import (
	"fmt"

	"repro/internal/vfs"
)

// ReadDirLocked loads and decodes a directory's entries.
func (fs *FS[N]) ReadDirLocked(in N) ([]vfs.RawDirEntry, error) {
	h := in.Hdr()
	if !h.IsDir() {
		return nil, vfs.ErrNotDir
	}
	if h.Size == 0 {
		return nil, nil
	}
	blob := make([]byte, h.Size)
	if _, err := fs.readAt(h, blob, 0); err != nil {
		return nil, err
	}
	return vfs.DecodeDirEntries(blob)
}

// WriteDirLocked serializes and stores a directory's entries.
func (fs *FS[N]) WriteDirLocked(in N, entries []vfs.RawDirEntry) error {
	blob := vfs.EncodeDirEntries(entries)
	if rem := int64(len(blob)) % fs.bs; fs.padDirs && rem != 0 {
		blob = append(blob, make([]byte, fs.bs-rem)...)
	}
	h := in.Hdr()
	if int64(len(blob)) < h.Size {
		if err := fs.ops.Truncate(in, int64(len(blob))); err != nil {
			return err
		}
	}
	if _, err := fs.writeAt(in, blob, 0); err != nil {
		return err
	}
	h.Size = int64(len(blob))
	h.Dirty, h.AttrDirty = true, true
	return nil
}

// entry reads dir and returns its entry for name.
func (fs *FS[N]) entry(dir N, name string) (vfs.RawDirEntry, error) {
	entries, err := fs.ReadDirLocked(dir)
	if err != nil {
		return vfs.RawDirEntry{}, err
	}
	for _, e := range entries {
		if e.Name == name {
			return e, nil
		}
	}
	return vfs.RawDirEntry{}, vfs.ErrNotExist
}

// walk resolves a component list starting at the root.
func (fs *FS[N]) walk(parts []string) (N, error) {
	var none N
	in, err := fs.ops.Load(RootIno)
	if err != nil {
		return none, err
	}
	for _, name := range parts {
		e, err := fs.entry(in, name)
		if err != nil {
			return none, err
		}
		if in, err = fs.ops.Load(Ino(e.Ino)); err != nil {
			return none, err
		}
	}
	return in, nil
}

// LookupLocked resolves a full path to an inode.
func (fs *FS[N]) LookupLocked(path string) (N, error) {
	parts, ok := vfs.SplitPath(path)
	if !ok {
		var none N
		return none, vfs.ErrBadPath
	}
	return fs.walk(parts)
}

// nameiParent resolves path to the directory holding its final component,
// returning that directory and the final name.
func (fs *FS[N]) nameiParent(path string) (N, string, error) {
	dirParts, base, ok := vfs.SplitDirBase(path)
	if !ok {
		var none N
		return none, "", vfs.ErrBadPath
	}
	in, err := fs.walk(dirParts)
	if err == nil && !in.Hdr().IsDir() {
		err = vfs.ErrNotDir
	}
	return in, base, err
}

// addEntry inserts (name → ino) into dir, failing on duplicates.
func (fs *FS[N]) addEntry(dir N, name string, ino Ino, isDir bool) error {
	entries, err := fs.ReadDirLocked(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Name == name {
			return vfs.ErrExist
		}
	}
	entries = append(entries, vfs.RawDirEntry{Ino: uint64(ino), IsDir: isDir, Name: name})
	return fs.WriteDirLocked(dir, entries)
}

// removeEntry deletes name from dir.
func (fs *FS[N]) removeEntry(dir N, name string) error {
	entries, err := fs.ReadDirLocked(dir)
	if err != nil {
		return err
	}
	for i, e := range entries {
		if e.Name == name {
			return fs.WriteDirLocked(dir, append(entries[:i], entries[i+1:]...))
		}
	}
	return vfs.ErrNotExist
}

// create allocates an inode of the given mode and links it under path. A
// failure after the allocation gives back everything the attempt took —
// buffers, blocks, the inode number — so that it leaves nothing behind.
func (fs *FS[N]) create(path string, mode uint32) (N, error) {
	var none N
	dir, base, err := fs.nameiParent(path)
	if err != nil {
		return none, err
	}
	in, err := fs.ops.Alloc()
	if err != nil {
		return none, err
	}
	h := in.Hdr()
	h.Mode, h.Nlink, h.Mtime, h.Dirty = mode, 1, int64(fs.ops.Clock.Now()), true
	if mode == ModeDir {
		h.Nlink = 2
		err = fs.WriteDirLocked(in, nil)
	}
	if err == nil {
		err = fs.addEntry(dir, base, h.Ino, mode == ModeDir)
	}
	if err != nil {
		if rerr := fs.ops.Release(in); rerr != nil {
			err = fmt.Errorf("%w (rollback: %v)", err, rerr)
		}
		fs.ops.Drop(in)
		return none, err
	}
	return in, fs.ops.Update(in)
}

// Create implements vfs.FileSystem.
func (fs *FS[N]) Create(path string) (vfs.File, error) {
	in, err := fs.create(path, ModeFile)
	if err != nil {
		return nil, err
	}
	return fs.open(in), nil
}

// Mkdir implements vfs.FileSystem.
func (fs *FS[N]) Mkdir(path string) error {
	_, err := fs.create(path, ModeDir)
	return err
}

// Open implements vfs.FileSystem.
func (fs *FS[N]) Open(path string) (vfs.File, error) {
	in, err := fs.LookupLocked(path)
	if err != nil {
		return nil, err
	}
	if in.Hdr().IsDir() {
		return nil, vfs.ErrIsDir
	}
	return fs.open(in), nil
}

// ReadDir implements vfs.FileSystem.
func (fs *FS[N]) ReadDir(path string) ([]vfs.DirEntry, error) {
	in, err := fs.LookupLocked(path)
	if err != nil {
		return nil, err
	}
	raw, err := fs.ReadDirLocked(in)
	if err != nil {
		return nil, err
	}
	vfs.SortDirEntries(raw)
	out := make([]vfs.DirEntry, len(raw))
	for i, e := range raw {
		out[i] = vfs.DirEntry{Name: e.Name, ID: vfs.FileID(e.Ino), IsDir: e.IsDir}
	}
	return out, nil
}

// Stat implements vfs.FileSystem.
func (fs *FS[N]) Stat(path string) (vfs.FileInfo, error) {
	in, err := fs.LookupLocked(path)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	h := in.Hdr()
	_, base, _ := vfs.SplitDirBase(path)
	return vfs.FileInfo{
		Name:         base,
		ID:           vfs.FileID(h.Ino),
		Size:         h.Size,
		IsDir:        h.IsDir(),
		TxnProtected: h.TxnProtected(),
	}, nil
}

// Remove implements vfs.FileSystem: unlink a file or remove an empty
// directory.
func (fs *FS[N]) Remove(path string) error {
	dir, base, err := fs.nameiParent(path)
	if err != nil {
		return err
	}
	e, err := fs.entry(dir, base)
	if err != nil {
		return err
	}
	in, err := fs.ops.Load(Ino(e.Ino))
	if err != nil {
		return err
	}
	if in.Hdr().IsDir() {
		sub, err := fs.ReadDirLocked(in)
		if err != nil {
			return err
		}
		if len(sub) > 0 {
			return vfs.ErrNotEmpty
		}
	}
	if in.Hdr().Refs > 0 {
		return fmt.Errorf("ufs: %s still open", path)
	}
	if err := fs.removeEntry(dir, base); err != nil {
		return err
	}
	if err := fs.ops.Release(in); err != nil {
		return err
	}
	return fs.ops.Free(in)
}

// SetTxnProtected turns the transaction-protection attribute of a file on or
// off — the paper's "provided utility" (§4). It has no effect on the normal
// read/write path; the embedded transaction manager consults it.
func (fs *FS[N]) SetTxnProtected(path string, on bool) error {
	in, err := fs.LookupLocked(path)
	if err != nil {
		return err
	}
	h := in.Hdr()
	if on {
		h.Flags |= FlagTxnProtected
	} else {
		h.Flags &^= FlagTxnProtected
	}
	h.Dirty, h.AttrDirty = true, true
	return fs.ops.Update(in)
}
