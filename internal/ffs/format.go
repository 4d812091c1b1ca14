// Package ffs implements the read-optimized, update-in-place file system the
// paper uses as its baseline (the original Sprite file system, an FFS-style
// design [8]). Files are allocated in contiguous extents so sequential reads
// stay fast; blocks keep their disk addresses for life, so every re-write
// lands on the same (usually distant) block — and dirty pages sit in the
// buffer cache for up to thirty seconds before the syncer pushes them out
// through a C-SCAN-sorted disk queue alongside the workload's random reads
// (§5.1 of the paper).
package ffs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/ufs"
)

// Ino is an inode number. Inode numbers index the fixed inode table.
type Ino = ufs.Ino

// RootIno is the root directory's inode number.
const RootIno = ufs.RootIno

const (
	superMagic = 0x46465331 // "FFS1"

	// inodeSlotSize is the on-disk footprint of one inode.
	inodeSlotSize = 256
	// inlineExtents is the number of extents stored in the inode itself.
	inlineExtents = 12

	// defaultMaxInodes sizes the inode table.
	defaultMaxInodes = 4096
)

// Errors.
var (
	ErrNoSpace  = errors.New("ffs: no space left on device")
	ErrNoInodes = errors.New("ffs: inode table full")
	ErrCorrupt  = errors.New("ffs: corrupt on-disk structure")
)

// extent is a contiguous run of blocks covering consecutive logical blocks.
type extent struct {
	Start int64
	Len   int64
}

// superblock (block 0).
type superblock struct {
	Magic       uint32
	BlockSize   uint32
	TotalBlocks int64
	BitmapStart int64
	BitmapLen   int64
	InodeStart  int64
	InodeLen    int64
	DataStart   int64
	MaxInodes   int64
	NextIno     int64 // persisted allocation hint
}

func (sb *superblock) encode(blockSize int) []byte {
	b := make([]byte, blockSize)
	le := binary.LittleEndian
	le.PutUint32(b[0:], sb.Magic)
	le.PutUint32(b[4:], sb.BlockSize)
	le.PutUint64(b[8:], uint64(sb.TotalBlocks))
	le.PutUint64(b[16:], uint64(sb.BitmapStart))
	le.PutUint64(b[24:], uint64(sb.BitmapLen))
	le.PutUint64(b[32:], uint64(sb.InodeStart))
	le.PutUint64(b[40:], uint64(sb.InodeLen))
	le.PutUint64(b[48:], uint64(sb.DataStart))
	le.PutUint64(b[56:], uint64(sb.MaxInodes))
	le.PutUint64(b[64:], uint64(sb.NextIno))
	le.PutUint32(b[72:], crc32.ChecksumIEEE(b[0:72]))
	return b
}

func decodeSuperblock(b []byte) (superblock, error) {
	var sb superblock
	if len(b) < 76 {
		return sb, fmt.Errorf("%w: short superblock", ErrCorrupt)
	}
	le := binary.LittleEndian
	if le.Uint32(b[72:]) != crc32.ChecksumIEEE(b[0:72]) {
		return sb, fmt.Errorf("%w: superblock checksum", ErrCorrupt)
	}
	sb.Magic = le.Uint32(b[0:])
	if sb.Magic != superMagic {
		return sb, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	sb.BlockSize = le.Uint32(b[4:])
	sb.TotalBlocks = int64(le.Uint64(b[8:]))
	sb.BitmapStart = int64(le.Uint64(b[16:]))
	sb.BitmapLen = int64(le.Uint64(b[24:]))
	sb.InodeStart = int64(le.Uint64(b[32:]))
	sb.InodeLen = int64(le.Uint64(b[40:]))
	sb.DataStart = int64(le.Uint64(b[48:]))
	sb.MaxInodes = int64(le.Uint64(b[56:]))
	sb.NextIno = int64(le.Uint64(b[64:]))
	return sb, nil
}

// inode is the in-memory inode: the shared header and FFS's block map.
type inode struct {
	ufs.Inode
	extents []extent // all extents, inline + overflow
	// overflow chain blocks currently allocated on disk
	overflow []int64
	// zeroLo and zeroHi bound the logical blocks [zeroLo, zeroHi) that a
	// growing Truncate zeroed on the device and nothing has written since
	// (reserveZeroed, durable). In memory only: a remount forgets them.
	zeroLo, zeroHi int64
}

// blocks returns the number of allocated blocks.
func (in *inode) blocks() int64 {
	var n int64
	for _, e := range in.extents {
		n += e.Len
	}
	return n
}

// mapBlock returns the disk address of logical block lbn, or 0 if
// unallocated.
func (in *inode) mapBlock(lbn int64) int64 {
	var cum int64
	for _, e := range in.extents {
		if lbn < cum+e.Len {
			return e.Start + (lbn - cum)
		}
		cum += e.Len
	}
	return 0
}

// appendBlock extends the mapping by one block at addr, merging with the
// last extent when contiguous.
func (in *inode) appendBlock(addr int64) {
	if n := len(in.extents); n > 0 {
		last := &in.extents[n-1]
		if last.Start+last.Len == addr {
			last.Len++
			return
		}
	}
	in.extents = append(in.extents, extent{Start: addr, Len: 1})
}

// encodeSlot serializes the inode's fixed part into a 256-byte slot.
// Layout: used(1) pad(3) mode(4) flags(4) nlink(4) size(8) mtime(8)
// nextents(4) pad(4) inline extents 12×(start 8, len 8) overflowPtr(8).
func (in *inode) encodeSlot() []byte {
	b := make([]byte, inodeSlotSize)
	le := binary.LittleEndian
	b[0] = 1
	le.PutUint32(b[4:], in.Mode)
	le.PutUint32(b[8:], in.Flags)
	le.PutUint32(b[12:], in.Nlink)
	le.PutUint64(b[16:], uint64(in.Size))
	le.PutUint64(b[24:], uint64(in.Mtime))
	le.PutUint32(b[32:], uint32(len(in.extents)))
	off := 40
	for i := 0; i < inlineExtents && i < len(in.extents); i++ {
		le.PutUint64(b[off:], uint64(in.extents[i].Start))
		le.PutUint64(b[off+8:], uint64(in.extents[i].Len))
		off += 16
	}
	ovp := int64(0)
	if len(in.overflow) > 0 {
		ovp = in.overflow[0]
	}
	le.PutUint64(b[40+inlineExtents*16:], uint64(ovp))
	return b
}

// decodeSlot parses an inode slot and returns it with its recorded extent
// count, inline and overflow; a nil inode means a free slot. The count must
// agree with the slot: past the inline extents only with an overflow
// pointer to hold the rest, and an overflow pointer only past them.
// Anything else is ErrCorrupt.
func decodeSlot(b []byte, ino Ino) (*inode, int, error) {
	if b[0] == 0 {
		return nil, 0, nil
	}
	le := binary.LittleEndian
	in := &inode{Inode: ufs.Inode{Ino: ino}}
	in.Mode = le.Uint32(b[4:])
	in.Flags = le.Uint32(b[8:])
	in.Nlink = le.Uint32(b[12:])
	in.Size = int64(le.Uint64(b[16:]))
	in.Mtime = int64(le.Uint64(b[24:]))
	n := int(le.Uint32(b[32:]))
	ovp := int64(le.Uint64(b[40+inlineExtents*16:]))
	if (n > inlineExtents) != (ovp != 0) {
		return nil, 0, fmt.Errorf("%w: inode %d records %d extents and overflow pointer %d (%d fit the slot)",
			ErrCorrupt, ino, n, ovp, inlineExtents)
	}
	off := 40
	for i := 0; i < inlineExtents && i < n; i++ {
		in.extents = append(in.extents, extent{
			Start: int64(le.Uint64(b[off:])),
			Len:   int64(le.Uint64(b[off+8:])),
		})
		off += 16
	}
	if ovp != 0 {
		in.overflow = []int64{ovp} // remaining chain read by caller
	}
	return in, n, nil
}

// Overflow extent block layout: next(8) count(4) pad(4) extents ×(start 8, len 8).
func overflowCapacity(blockSize int) int { return (blockSize - 16) / 16 }

func encodeOverflow(blockSize int, next int64, exts []extent) []byte {
	b := make([]byte, blockSize)
	le := binary.LittleEndian
	le.PutUint64(b[0:], uint64(next))
	le.PutUint32(b[8:], uint32(len(exts)))
	off := 16
	for _, e := range exts {
		le.PutUint64(b[off:], uint64(e.Start))
		le.PutUint64(b[off+8:], uint64(e.Len))
		off += 16
	}
	return b
}

// decodeOverflow parses overflow block blk of inode ino, which may hold at
// most want of the extents the inode's slot records. The block is not
// trusted: a count of zero (the encoder never writes an empty block), past
// the block's capacity or past want is ErrCorrupt, so neither a bad count nor
// a chain that points back into itself can run past the buffer or forever.
func decodeOverflow(b []byte, ino Ino, blk int64, want int) (exts []extent, next int64, err error) {
	le := binary.LittleEndian
	next = int64(le.Uint64(b[0:]))
	n := int(le.Uint32(b[8:]))
	if capacity := overflowCapacity(len(b)); n == 0 || n > capacity || n > want {
		return nil, 0, fmt.Errorf("%w: inode %d overflow block %d holds %d extents (capacity %d, %d left of the slot's count)",
			ErrCorrupt, ino, blk, n, capacity, want)
	}
	off := 16
	for i := 0; i < n; i++ {
		exts = append(exts, extent{
			Start: int64(le.Uint64(b[off:])),
			Len:   int64(le.Uint64(b[off+8:])),
		})
		off += 16
	}
	return exts, next, nil
}
