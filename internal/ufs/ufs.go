// Package ufs is the half of a file system that does not care where blocks
// live: the in-memory inode header, path resolution, directories, the eight
// namespace operations and the open-file handle with its buffered byte-range
// loops. The read-optimized file system (internal/ffs) and the log-structured
// one (internal/lfs) are its two users, as 4.4BSD's ffs and lfs sit under one
// ufs: each embeds an FS instantiated with its own inode type and hands in,
// as the Ops vector, exactly what differs between them — where inodes and
// blocks are kept. §5 of the paper compares two file systems that present one
// interface; this package is that interface's single implementation. It also
// holds the one write-behind rule both obey (Stage): a dirty block the cache
// evicts waits in a bounded table for the next flush instead of being written
// where it stands. Its write path keeps, for both, each buffer's record of
// changed bytes (buffer.Changed).
package ufs

import (
	"repro/internal/buffer"
	"repro/internal/sim"
)

// Ino is an inode number.
type Ino uint64

// RootIno is the root directory's inode number.
const RootIno Ino = 1

// File modes and inode flags, as both on-disk inode formats store them.
const (
	ModeFile uint32 = 1
	ModeDir  uint32 = 2

	FlagTxnProtected uint32 = 1 << 0 // the paper's per-file transaction attribute
)

// Inode is the in-memory inode header. Each file system embeds it in its own
// inode type, beside its block map.
type Inode struct {
	Ino   Ino
	Mode  uint32
	Flags uint32
	Size  int64
	Nlink uint32
	Mtime int64 // simulated time in nanoseconds

	Dirty bool // the inode differs from its durable copy, if only in Mtime
	// AttrDirty: something a crash could not rebuild changed since the inode
	// was last written — size, nlink, mode, flags, and on FFS the extent map
	// (LFS roll-forward rebuilds block addresses from the summaries' (inode,
	// logical block) entries). It is the bit File.Sync tests on both file
	// systems (vfs.File states the contract): an inode that is Dirty without
	// it — a new modification time, on LFS a moved block — waits for the
	// periodic flush. AttrDirty implies Dirty; writing the inode clears both.
	AttrDirty bool
	Refs      int // open handles
}

// Hdr returns the header itself; through embedding it is how the shared code
// reaches the header of a file system's inode.
func (in *Inode) Hdr() *Inode { return in }

// IsDir reports whether the inode is a directory.
func (in *Inode) IsDir() bool { return in.Mode == ModeDir }

// TxnProtected reports the transaction-protection attribute (§4:
// "transaction-protection is considered to be an attribute of a file").
func (in *Inode) TxnProtected() bool { return in.Flags&FlagTxnProtected != 0 }

// Node is a file system's inode: a pointer to a struct embedding Inode.
type Node interface{ Hdr() *Inode }

// Ops is what a file system supplies: its cache and clock, and the operations
// that depend on where inodes and blocks live. The functions are bound once at
// mount.
type Ops[N Node] struct {
	Pool  *buffer.Pool
	Clock *sim.Clock
	Fetch buffer.Fetch // loads a file block on a cache miss

	// Load returns the inode numbered ino, or vfs.ErrNotExist.
	Load func(ino Ino) (N, error)
	// Alloc returns a new inode, numbered and loadable, otherwise zero.
	Alloc func() (N, error)
	// Drop undoes Alloc for an inode nothing durable names yet.
	Drop func(N)
	// Free deletes an inode whose last name is gone.
	Free func(N) error
	// Release gives back what an inode holds: cached buffers, disk blocks.
	Release func(N) error
	// Update notes an attribute change outside the data path. FFS writes the
	// inode's table slot through; LFS needs nothing beyond the dirty bits.
	Update func(N) error
	// Reserve makes logical blocks up to lastLBN writable: FFS allocates
	// them, LFS only bounds the file size.
	Reserve func(in N, lastLBN int64) error
	// Truncate sets the size, freeing blocks past the new end.
	Truncate func(in N, size int64) error
	// Sync is File.Sync under vfs.File's contract: one file's dirty blocks,
	// and its inode if AttrDirty, reach the medium — data first.
	Sync func(N) error
	// Tick runs before every read and write of an open file: on both file
	// systems it writes out a Stage that evictions have filled (LFS as a
	// partial segment, FFS as one C-SCAN sweep), and on FFS it runs the 30 s
	// syncer, which also stores the inodes that are merely Dirty.
	Tick func() error
	// Durable, asked before every write to b, returns what the write is
	// measured against for b's record of changed bytes (buffer.Changed): b's
	// bytes while b is dirty, a clean b's durable image, or nil for unknown.
	// fresh says the pool zeroed b without fetching the block.
	Durable func(in N, b *buffer.Buf, fresh bool) []byte
	Room    buffer.Room // bounds the records' spans; zero keeps only the hull

	// InodeAtSync makes File.Sync write the inode whenever it is Dirty, as a
	// full fsync(2) would. It is the second arm of `txnbench -fig fsync` and
	// nothing else sets it.
	InodeAtSync bool
}

// FS is the shared layer of one mounted file system. Like the file system that
// embeds it, it has no lock: it must be used from proc context, or from the
// main goroutine while no scheduler runs.
type FS[N Node] struct {
	ops     Ops[N]
	bs      int64
	padDirs bool
}

// New builds the layer over ops. padDirs stores each directory padded to
// whole blocks, so that the entry count inside the first block is the sole
// authority on its contents and an update that stays within one block is
// atomic on the device. FFS needs that — it has no log to make a directory's
// data block and its inode's new size durable together — and passes true;
// it is an argument, not an option, because it is part of FFS's format.
func New[N Node](ops Ops[N], padDirs bool) *FS[N] {
	return &FS[N]{ops: ops, bs: int64(ops.Pool.BlockSize()), padDirs: padDirs}
}
