// Package vfs defines the file-system-neutral interfaces the rest of the
// reproduction is written against. The user-level transaction system
// (internal/libtp), the access methods, and the workloads all operate on
// vfs.FileSystem/vfs.File, so the same code runs unchanged on the
// log-structured file system (internal/lfs) and the read-optimized baseline
// (internal/ffs) — exactly the comparison §5 of the paper makes.
package vfs

import (
	"errors"

	"repro/internal/buffer"
)

// FileID identifies a file (an inode number) within a file system.
type FileID = buffer.FileID

// Errors shared by file system implementations.
var (
	ErrNotExist   = errors.New("vfs: file does not exist")
	ErrExist      = errors.New("vfs: file already exists")
	ErrIsDir      = errors.New("vfs: is a directory")
	ErrNotDir     = errors.New("vfs: not a directory")
	ErrNotEmpty   = errors.New("vfs: directory not empty")
	ErrNoSpace    = errors.New("vfs: no space left on device")
	ErrBadPath    = errors.New("vfs: malformed path")
	ErrFileClosed = errors.New("vfs: file is closed")
)

// FileInfo describes a file.
type FileInfo struct {
	Name         string
	ID           FileID
	Size         int64
	IsDir        bool
	TxnProtected bool // the paper's per-file transaction-protection attribute
}

// DirEntry is one directory entry.
type DirEntry struct {
	Name  string
	ID    FileID
	IsDir bool
}

// File is an open file handle.
type File interface {
	// ID returns the file's identity (inode number).
	ID() FileID
	// ReadAt reads len(p) bytes from byte offset off. Reads past EOF
	// return the available bytes and io.EOF semantics are NOT used: n may
	// be short with a nil error only at EOF.
	ReadAt(p []byte, off int64) (int, error)
	// WriteAt writes len(p) bytes at byte offset off, extending the file
	// if needed.
	WriteAt(p []byte, off int64) (int, error)
	// Size returns the current file size in bytes.
	Size() (int64, error)
	// Truncate sets the file size. The bytes past the old size read as
	// zeros. Growing reserves the new range's blocks on FFS — mapped, with
	// their zeros on the device — and leaves it a hole on LFS, which
	// allocates a block only when it logs one.
	Truncate(size int64) error
	// Sync makes the file's contents durable together with whatever a crash
	// could not otherwise rebuild — size, block map, link count, mode, flags;
	// a modification time alone rides the file system's next periodic flush
	// (FFS syncer pass, LFS checkpoint) or FileSystem.Sync.
	Sync() error
	// Close releases the handle.
	Close() error
}

// FileSystem is the interface both file systems implement.
type FileSystem interface {
	// Name identifies the implementation ("lfs" or "ffs").
	Name() string
	// Create creates a regular file. It fails if the path exists.
	Create(path string) (File, error)
	// Open opens an existing regular file.
	Open(path string) (File, error)
	// Remove unlinks a file or removes an empty directory.
	Remove(path string) error
	// Mkdir creates a directory.
	Mkdir(path string) error
	// ReadDir lists a directory.
	ReadDir(path string) ([]DirEntry, error)
	// Stat describes a path.
	Stat(path string) (FileInfo, error)
	// Sync flushes all dirty state to stable storage.
	Sync() error
	// BlockSize returns the file system block size.
	BlockSize() int
}
