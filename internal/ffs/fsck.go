package ffs

import (
	"fmt"

	"repro/internal/detsort"
)

// FsckReport summarizes what crash recovery had to repair.
type FsckReport struct {
	Inodes       int64 // inodes walked
	UsedBlocks   int64 // blocks referenced by the inode table (incl. metadata area)
	LostBlocks   int64 // referenced but marked free in the on-disk bitmap (reclaimed leaks)
	LeakedBlocks int64 // marked used on disk but referenced by nothing (freed)
	CrossLinked  int64 // blocks claimed by more than one owner (reported, first owner wins)
}

// OK reports whether the on-disk state needed no repair.
func (r *FsckReport) OK() bool {
	return r.LostBlocks == 0 && r.LeakedBlocks == 0 && r.CrossLinked == 0
}

// Fsck rebuilds the allocation bitmap from the inode table and persists the
// result. It is the FFS leg of crash recovery: data blocks and inode-table
// blocks are written through (or flushed at commit), but the bitmap and
// superblock reach the disk only at Sync, so after a crash the bitmap is
// stale — typically missing allocations made since the last sync. Replaying
// the WAL on top of a stale bitmap could hand freshly "free" blocks that
// actually hold committed data to new allocations, so Fsck must run after
// Mount and before WAL recovery.
//
// The inode table is authoritative: every used slot's extents and overflow
// chain mark their blocks allocated; everything else outside the metadata
// area is free.
func (fs *FS) Fsck() (*FsckReport, error) {

	rep := &FsckReport{}
	rebuilt := make([]uint64, len(fs.bitmap))
	set := func(b int64) bool {
		if rebuilt[b/64]&(1<<(uint(b)%64)) != 0 {
			return false
		}
		rebuilt[b/64] |= 1 << (uint(b) % 64)
		rep.UsedBlocks++
		return true
	}
	// Metadata area: superblock, bitmap, inode table.
	for b := int64(0); b < fs.sb.DataStart; b++ {
		set(b)
	}
	for _, ino := range detsort.Keys(fs.usedSlots) {
		in, err := fs.loadInodeLocked(ino)
		if err != nil {
			return nil, fmt.Errorf("ffs: fsck of inode %d: %w", ino, err)
		}
		rep.Inodes++
		for _, b := range in.overflow {
			if b < fs.sb.DataStart || b >= fs.sb.TotalBlocks {
				return nil, fmt.Errorf("ffs: fsck: inode %d overflow block %d out of range", ino, b)
			}
			if !set(b) {
				rep.CrossLinked++
			}
		}
		for _, e := range in.extents {
			if e.Start < fs.sb.DataStart || e.Start+e.Len > fs.sb.TotalBlocks || e.Len < 0 {
				return nil, fmt.Errorf("ffs: fsck: inode %d extent [%d,+%d) out of range", ino, e.Start, e.Len)
			}
			for b := e.Start; b < e.Start+e.Len; b++ {
				if !set(b) {
					rep.CrossLinked++
				}
			}
		}
	}
	// Diff against the (possibly stale) bitmap loaded at mount.
	for b := int64(0); b < fs.sb.TotalBlocks; b++ {
		was := fs.bit(b)
		is := rebuilt[b/64]&(1<<(uint(b)%64)) != 0
		switch {
		case is && !was:
			rep.LostBlocks++
		case !is && was:
			rep.LeakedBlocks++
		}
	}
	fs.bitmap = rebuilt
	fs.cursor = fs.sb.DataStart
	// Persist the repaired bitmap (and superblock) so a second crash during
	// recovery finds a consistent picture.
	if err := fs.syncLocked(); err != nil {
		return nil, err
	}
	return rep, nil
}
