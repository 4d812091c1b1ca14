package lfs

import (
	"fmt"

	"repro/internal/vfs"
)

// readDirLocked loads and decodes a directory's entries.
func (fs *FS) readDirLocked(in *inode) ([]vfs.RawDirEntry, error) {
	if !in.isDir() {
		return nil, vfs.ErrNotDir
	}
	if in.size == 0 {
		return nil, nil
	}
	blob := make([]byte, in.size)
	if _, err := fs.readAtLocked(in, blob, 0); err != nil {
		return nil, err
	}
	return vfs.DecodeDirEntries(blob)
}

// writeDirLocked serializes and stores a directory's entries.
func (fs *FS) writeDirLocked(in *inode, entries []vfs.RawDirEntry) error {
	blob := vfs.EncodeDirEntries(entries)
	if int64(len(blob)) < in.size {
		if err := fs.truncateLocked(in, int64(len(blob))); err != nil {
			return err
		}
	}
	if _, err := fs.writeAtLocked(in, blob, 0); err != nil {
		return err
	}
	in.size = int64(len(blob))
	in.dirty, in.attrDirty = true, true
	return nil
}

// nameiLocked resolves path components to the directory inode containing the
// final component. Returns the parent inode and the final name.
func (fs *FS) nameiParentLocked(path string) (*inode, string, error) {
	dirParts, base, ok := vfs.SplitDirBase(path)
	if !ok {
		return nil, "", vfs.ErrBadPath
	}
	in, err := fs.walkLocked(dirParts)
	if err != nil {
		return nil, "", err
	}
	if !in.isDir() {
		return nil, "", vfs.ErrNotDir
	}
	return in, base, nil
}

// walkLocked resolves a component list starting at the root.
func (fs *FS) walkLocked(parts []string) (*inode, error) {
	in, err := fs.loadInode(RootIno)
	if err != nil {
		return nil, err
	}
	for _, name := range parts {
		entries, err := fs.readDirLocked(in)
		if err != nil {
			return nil, err
		}
		var next Ino
		found := false
		for _, e := range entries {
			if e.Name == name {
				next = Ino(e.Ino)
				found = true
				break
			}
		}
		if !found {
			return nil, vfs.ErrNotExist
		}
		in, err = fs.loadInode(next)
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

// lookupLocked resolves a full path to an inode.
func (fs *FS) lookupLocked(path string) (*inode, error) {
	parts, ok := vfs.SplitPath(path)
	if !ok {
		return nil, vfs.ErrBadPath
	}
	return fs.walkLocked(parts)
}

// addEntryLocked inserts (name → ino) into dir, failing on duplicates.
func (fs *FS) addEntryLocked(dir *inode, name string, ino Ino, isDir bool) error {
	entries, err := fs.readDirLocked(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Name == name {
			return vfs.ErrExist
		}
	}
	entries = append(entries, vfs.RawDirEntry{Ino: uint64(ino), IsDir: isDir, Name: name})
	return fs.writeDirLocked(dir, entries)
}

// removeEntryLocked deletes name from dir, returning the removed entry.
func (fs *FS) removeEntryLocked(dir *inode, name string) (vfs.RawDirEntry, error) {
	entries, err := fs.readDirLocked(dir)
	if err != nil {
		return vfs.RawDirEntry{}, err
	}
	for i, e := range entries {
		if e.Name == name {
			entries = append(entries[:i], entries[i+1:]...)
			return e, fs.writeDirLocked(dir, entries)
		}
	}
	return vfs.RawDirEntry{}, vfs.ErrNotExist
}

// Create implements vfs.FileSystem.
func (fs *FS) Create(path string) (vfs.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir, base, err := fs.nameiParentLocked(path)
	if err != nil {
		return nil, err
	}
	ino := fs.nextIno
	fs.nextIno++
	in := &inode{ino: ino, mode: modeFile, nlink: 1, mtime: int64(fs.clock.Now()), dirty: true, refs: 1}
	fs.inodes[ino] = in
	if err := fs.addEntryLocked(dir, base, ino, false); err != nil {
		delete(fs.inodes, ino)
		fs.nextIno--
		return nil, err
	}
	return &File{fs: fs, in: in}, nil
}

// Open implements vfs.FileSystem.
func (fs *FS) Open(path string) (vfs.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	in, err := fs.lookupLocked(path)
	if err != nil {
		return nil, err
	}
	if in.isDir() {
		return nil, vfs.ErrIsDir
	}
	in.refs++
	return &File{fs: fs, in: in}, nil
}

// Mkdir implements vfs.FileSystem.
func (fs *FS) Mkdir(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir, base, err := fs.nameiParentLocked(path)
	if err != nil {
		return err
	}
	ino := fs.nextIno
	fs.nextIno++
	in := &inode{ino: ino, mode: modeDir, nlink: 2, mtime: int64(fs.clock.Now()), dirty: true}
	fs.inodes[ino] = in
	if err := fs.writeDirLocked(in, nil); err != nil {
		delete(fs.inodes, ino)
		fs.nextIno--
		return err
	}
	if err := fs.addEntryLocked(dir, base, ino, true); err != nil {
		delete(fs.inodes, ino)
		fs.nextIno--
		return err
	}
	return nil
}

// ReadDir implements vfs.FileSystem.
func (fs *FS) ReadDir(path string) ([]vfs.DirEntry, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	in, err := fs.lookupLocked(path)
	if err != nil {
		return nil, err
	}
	raw, err := fs.readDirLocked(in)
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
func (fs *FS) Stat(path string) (vfs.FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	in, err := fs.lookupLocked(path)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	_, base, _ := vfs.SplitDirBase(path)
	return vfs.FileInfo{
		Name:         base,
		ID:           vfs.FileID(in.ino),
		Size:         in.size,
		IsDir:        in.isDir(),
		TxnProtected: in.txnProtected(),
	}, nil
}

// Remove implements vfs.FileSystem: unlink a file or remove an empty
// directory. The freed blocks become dead in their segments and a deletion
// record is queued for the next summary so roll-forward learns about it.
func (fs *FS) Remove(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir, base, err := fs.nameiParentLocked(path)
	if err != nil {
		return err
	}
	entries, err := fs.readDirLocked(dir)
	if err != nil {
		return err
	}
	var target *vfs.RawDirEntry
	for i := range entries {
		if entries[i].Name == base {
			target = &entries[i]
			break
		}
	}
	if target == nil {
		return vfs.ErrNotExist
	}
	in, err := fs.loadInode(Ino(target.Ino))
	if err != nil {
		return err
	}
	if in.isDir() {
		sub, err := fs.readDirLocked(in)
		if err != nil {
			return err
		}
		if len(sub) > 0 {
			return vfs.ErrNotEmpty
		}
	}
	if in.refs > 0 {
		return fmt.Errorf("lfs: %s still open", path)
	}
	if _, err := fs.removeEntryLocked(dir, base); err != nil {
		return err
	}
	if err := fs.freeFileBlocksLocked(in); err != nil {
		return err
	}
	fs.decPackRef(fs.imap[in.ino])
	if err := fs.pool.InvalidateFile(vfs.FileID(in.ino)); err != nil {
		return err
	}
	for id := range fs.orphans {
		if id.File == vfs.FileID(in.ino) {
			delete(fs.orphans, id)
		}
	}
	delete(fs.imap, in.ino)
	delete(fs.inodes, in.ino)
	fs.pendingDel = append(fs.pendingDel, in.ino)
	return nil
}

// Rename implements vfs.FileSystem.
func (fs *FS) Rename(oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	oldDir, oldBase, err := fs.nameiParentLocked(oldPath)
	if err != nil {
		return err
	}
	newDir, newBase, err := fs.nameiParentLocked(newPath)
	if err != nil {
		return err
	}
	entry, err := fs.removeEntryLocked(oldDir, oldBase)
	if err != nil {
		return err
	}
	if err := fs.addEntryLocked(newDir, newBase, Ino(entry.Ino), entry.IsDir); err != nil {
		// Roll back the unlink on failure.
		_ = fs.addEntryLocked(oldDir, oldBase, Ino(entry.Ino), entry.IsDir)
		return err
	}
	return nil
}

// SetTxnProtected turns the transaction-protection attribute of a file on or
// off — the paper's "provided utility" (§4). It has no effect on the normal
// read/write path; the embedded transaction manager consults it.
func (fs *FS) SetTxnProtected(path string, on bool) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	in, err := fs.lookupLocked(path)
	if err != nil {
		return err
	}
	if on {
		in.flags |= flagTxnProtected
	} else {
		in.flags &^= flagTxnProtected
	}
	in.dirty, in.attrDirty = true, true
	return nil
}
