package lfs

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/frame"
	"repro/internal/ufs"
)

// inode is the in-memory representation of a file's index structure: the
// paper's "meta-data". Direct blocks hold data; the single indirect block
// holds addresses of data blocks; the double indirect block holds addresses
// of indirect ("child") blocks. Address 0 means "no block" (a hole reads as
// zeros; the superblock lives at 0 so it can never be a data address).
type inode struct {
	// The shared header. Dirty also covers the cached pointer blocks below;
	// AttrDirty need not cover indAddr and dindAddr, which move only in full
	// flushes, and those pack every inode they touch.
	ufs.Inode
	direct [NDirect]int64

	// On-disk addresses of the pointer blocks (0 = none).
	indAddr  int64
	dindAddr int64

	// Cached pointer blocks, loaded lazily.
	ind    *ptrBlock
	dind   *ptrBlock
	dchild map[int64]*ptrBlock

	// ptrsCleared: a shrinking truncate removed pointers from the pointer
	// blocks since they were last written. Roll-forward can add a pointer
	// from a summary but never remove one, so the next flush that writes the
	// inode — a commit force too — writes its dirty pointer blocks with it.
	ptrsCleared bool
	// forced: File.Sync has forced the file since it was loaded, so its
	// writes are compared with the bytes they replace (durable). A file
	// nobody forces — a database being bulk-loaded — costs no comparison.
	forced bool
}

// ptrBlock is a cached block of disk addresses.
type ptrBlock struct {
	addr  int64 // current on-disk address, 0 if never written
	ptrs  []int64
	dirty bool
}

func newPtrBlock(nptr int) *ptrBlock {
	return &ptrBlock{ptrs: make([]int64, nptr)}
}

// encode fills block b with the pointers.
func (p *ptrBlock) encode(b []byte) {
	clear(b[len(p.ptrs)*8:])
	for i, v := range p.ptrs {
		binary.LittleEndian.PutUint64(b[i*8:], uint64(v))
	}
}

func decodePtrBlock(b []byte) *ptrBlock {
	n := len(b) / 8
	p := &ptrBlock{ptrs: make([]int64, n)}
	for i := 0; i < n; i++ {
		p.ptrs[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return p
}

// nptr returns the number of pointers a block holds.
func nptr(blockSize int) int64 { return int64(blockSize / 8) }

// maxLBN returns the largest mappable logical block number + 1.
func maxLBN(blockSize int) int64 {
	n := nptr(blockSize)
	return NDirect + n + n*n
}

// inode wire format (a fixed-size record; several records are packed into
// one "inode pack" block per partial segment, as Sprite LFS packed dinodes —
// this keeps the per-commit meta-data overhead at one block regardless of
// how many files a transaction touched):
//
//	magic  uint32
//	crc    uint32
//	ino    uint64
//	mode   uint32
//	flags  uint32
//	size   int64
//	nlink  uint32
//	pad    uint32
//	mtime  int64
//	direct [NDirect]int64
//	indAddr  int64
//	dindAddr int64
const inodeWireSize = 4 + 4 + 8 + 4 + 4 + 8 + 4 + 4 + 8 + NDirect*8 + 8 + 8

// encodeWire serializes the inode into b, a fixed-size self-checksummed record.
func (in *inode) encodeWire(b []byte) {
	b = b[:inodeWireSize]
	clear(b)
	le := binary.LittleEndian
	le.PutUint32(b[0:], inodeMagic)
	le.PutUint64(b[8:], uint64(in.Ino))
	le.PutUint32(b[16:], in.Mode)
	le.PutUint32(b[20:], in.Flags)
	le.PutUint64(b[24:], uint64(in.Size))
	le.PutUint32(b[32:], in.Nlink)
	le.PutUint64(b[40:], uint64(in.Mtime))
	off := 48
	for _, d := range in.direct {
		le.PutUint64(b[off:], uint64(d))
		off += 8
	}
	le.PutUint64(b[off:], uint64(in.indAddr))
	le.PutUint64(b[off+8:], uint64(in.dindAddr))
	le.PutUint32(b[4:], crc32.ChecksumIEEE(b[8:inodeWireSize]))
}

func decodeInodeWire(b []byte) (*inode, error) {
	if len(b) < inodeWireSize {
		return nil, fmt.Errorf("%w: short inode record", ErrCorrupt)
	}
	le := binary.LittleEndian
	if le.Uint32(b[0:]) != inodeMagic {
		return nil, fmt.Errorf("%w: bad inode magic", ErrCorrupt)
	}
	if le.Uint32(b[4:]) != crc32.ChecksumIEEE(b[8:inodeWireSize]) {
		return nil, fmt.Errorf("%w: inode checksum", ErrCorrupt)
	}
	if le.Uint32(b[36:]) != 0 {
		return nil, fmt.Errorf("%w: inode record padding", ErrCorrupt)
	}
	in := &inode{}
	in.Ino = Ino(le.Uint64(b[8:]))
	in.Mode = le.Uint32(b[16:])
	in.Flags = le.Uint32(b[20:])
	in.Size = int64(le.Uint64(b[24:]))
	in.Nlink = le.Uint32(b[32:])
	in.Mtime = int64(le.Uint64(b[40:]))
	off := 48
	for i := range in.direct {
		in.direct[i] = int64(le.Uint64(b[off:]))
		off += 8
	}
	in.indAddr = int64(le.Uint64(b[off:]))
	in.dindAddr = int64(le.Uint64(b[off+8:]))
	return in, nil
}

// Inode pack block: header (magic u32, count u32, pad 8) + count wire
// records.
const (
	packMagic  = 0x4c465350 // "LFSP"
	packHeader = 16
)

// maxInodesPerPack returns how many inode records one pack block holds.
func maxInodesPerPack(blockSize int) int {
	return (blockSize - packHeader) / inodeWireSize
}

// encodeInodePack builds a pack block from the given inodes in block b.
func encodeInodePack(b []byte, inodes []*inode) {
	clear(b)
	le := binary.LittleEndian
	le.PutUint32(b[0:], packMagic)
	le.PutUint32(b[4:], uint32(len(inodes)))
	off := packHeader
	for _, in := range inodes {
		in.encodeWire(b[off:])
		off += inodeWireSize
	}
}

// decodeInodePack parses a pack block into its inode records. It accepts
// only what encodeInodePack writes: at least one record, and zero in the
// header's pad, each record's pad and every byte after the last record.
func decodeInodePack(b []byte) ([]*inode, error) {
	le := binary.LittleEndian
	if len(b) < packHeader || le.Uint32(b[0:]) != packMagic {
		return nil, fmt.Errorf("%w: bad inode pack magic", ErrCorrupt)
	}
	n := int(le.Uint32(b[4:]))
	if n < 1 || packHeader+n*inodeWireSize > len(b) {
		return nil, fmt.Errorf("%w: inode pack count %d", ErrCorrupt, n)
	}
	end := packHeader + n*inodeWireSize
	if !frame.IsZero(b[8:packHeader]) || !frame.IsZero(b[end:]) {
		return nil, fmt.Errorf("%w: inode pack padding", ErrCorrupt)
	}
	out := make([]*inode, 0, n)
	for off := packHeader; off < end; off += inodeWireSize {
		in, err := decodeInodeWire(b[off : off+inodeWireSize])
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// loadInd ensures the single indirect pointer block is cached.
func (fs *FS) loadInd(in *inode) (*ptrBlock, error) {
	if in.ind != nil {
		return in.ind, nil
	}
	np := int(nptr(fs.blockSize))
	if in.indAddr == 0 {
		in.ind = newPtrBlock(np)
		return in.ind, nil
	}
	buf := fs.frames.Take()
	defer fs.frames.Give(buf) // decodePtrBlock copies the pointers out
	if err := fs.dev.Read(in.indAddr, buf); err != nil {
		return nil, err
	}
	p := decodePtrBlock(buf)
	p.addr = in.indAddr
	in.ind = p
	return p, nil
}

// loadDInd ensures the double indirect pointer block is cached.
func (fs *FS) loadDInd(in *inode) (*ptrBlock, error) {
	if in.dind != nil {
		return in.dind, nil
	}
	np := int(nptr(fs.blockSize))
	if in.dindAddr == 0 {
		in.dind = newPtrBlock(np)
		return in.dind, nil
	}
	buf := fs.frames.Take()
	defer fs.frames.Give(buf) // decodePtrBlock copies the pointers out
	if err := fs.dev.Read(in.dindAddr, buf); err != nil {
		return nil, err
	}
	p := decodePtrBlock(buf)
	p.addr = in.dindAddr
	in.dind = p
	return p, nil
}

// loadDChild ensures child slot `slot` of the double indirect block is cached.
func (fs *FS) loadDChild(in *inode, slot int64) (*ptrBlock, error) {
	if in.dchild == nil {
		in.dchild = make(map[int64]*ptrBlock)
	}
	if p, ok := in.dchild[slot]; ok {
		return p, nil
	}
	dind, err := fs.loadDInd(in)
	if err != nil {
		return nil, err
	}
	np := int(nptr(fs.blockSize))
	addr := dind.ptrs[slot]
	if addr == 0 {
		p := newPtrBlock(np)
		in.dchild[slot] = p
		return p, nil
	}
	buf := fs.frames.Take()
	defer fs.frames.Give(buf) // decodePtrBlock copies the pointers out
	if err := fs.dev.Read(addr, buf); err != nil {
		return nil, err
	}
	p := decodePtrBlock(buf)
	p.addr = addr
	in.dchild[slot] = p
	return p, nil
}

// blockAddr returns the on-disk address of logical block lbn (0 = hole).
func (fs *FS) blockAddr(in *inode, lbn int64) (int64, error) {
	np := nptr(fs.blockSize)
	switch {
	case lbn < 0:
		return 0, fmt.Errorf("lfs: negative logical block %d", lbn)
	case lbn < NDirect:
		return in.direct[lbn], nil
	case lbn < NDirect+np:
		if in.indAddr == 0 && in.ind == nil {
			return 0, nil
		}
		p, err := fs.loadInd(in)
		if err != nil {
			return 0, err
		}
		return p.ptrs[lbn-NDirect], nil
	case lbn < maxLBN(fs.blockSize):
		rel := lbn - NDirect - np
		slot, idx := rel/np, rel%np
		if in.dindAddr == 0 && in.dind == nil {
			return 0, nil
		}
		dind, err := fs.loadDInd(in)
		if err != nil {
			return 0, err
		}
		if dind.ptrs[slot] == 0 {
			if in.dchild == nil || in.dchild[slot] == nil {
				return 0, nil
			}
		}
		child, err := fs.loadDChild(in, slot)
		if err != nil {
			return 0, err
		}
		return child.ptrs[idx], nil
	default:
		return 0, ErrFileTooLarge
	}
}

// setBlockAddr points logical block lbn at addr, returning the previous
// address. The affected pointer blocks are marked dirty so the next partial
// segment rewrites them — LFS never updates meta-data in place.
func (fs *FS) setBlockAddr(in *inode, lbn, addr int64) (old int64, err error) {
	np := nptr(fs.blockSize)
	in.Dirty = true
	switch {
	case lbn < 0:
		return 0, fmt.Errorf("lfs: negative logical block %d", lbn)
	case lbn < NDirect:
		old = in.direct[lbn]
		in.direct[lbn] = addr
		return old, nil
	case lbn < NDirect+np:
		p, err := fs.loadInd(in)
		if err != nil {
			return 0, err
		}
		old = p.ptrs[lbn-NDirect]
		p.ptrs[lbn-NDirect] = addr
		p.dirty = true
		return old, nil
	case lbn < maxLBN(fs.blockSize):
		rel := lbn - NDirect - np
		slot, idx := rel/np, rel%np
		child, err := fs.loadDChild(in, slot)
		if err != nil {
			return 0, err
		}
		old = child.ptrs[idx]
		child.ptrs[idx] = addr
		child.dirty = true
		return old, nil
	default:
		return 0, ErrFileTooLarge
	}
}

// forEachBlock invokes fn for every mapped (non-hole) logical block of the
// file, including pointer blocks (with kind != kindData). Used by Remove,
// the cleaner's liveness audit, and the mount-time usage rebuild.
func (fs *FS) forEachBlock(in *inode, fn func(kind blockKind, index, addr int64) error) error {
	np := nptr(fs.blockSize)
	for i := int64(0); i < NDirect; i++ {
		if in.direct[i] != 0 {
			if err := fn(kindData, i, in.direct[i]); err != nil {
				return err
			}
		}
	}
	if in.indAddr != 0 || in.ind != nil {
		p, err := fs.loadInd(in)
		if err != nil {
			return err
		}
		if p.addr != 0 {
			if err := fn(kindInd, 0, p.addr); err != nil {
				return err
			}
		}
		for i, a := range p.ptrs {
			if a != 0 {
				if err := fn(kindData, NDirect+int64(i), a); err != nil {
					return err
				}
			}
		}
	}
	if in.dindAddr != 0 || in.dind != nil {
		dind, err := fs.loadDInd(in)
		if err != nil {
			return err
		}
		if dind.addr != 0 {
			if err := fn(kindDInd, 0, dind.addr); err != nil {
				return err
			}
		}
		for slot := int64(0); slot < np; slot++ {
			if dind.ptrs[slot] == 0 && (in.dchild == nil || in.dchild[slot] == nil) {
				continue
			}
			child, err := fs.loadDChild(in, slot)
			if err != nil {
				return err
			}
			if child.addr != 0 {
				if err := fn(kindDChild, slot, child.addr); err != nil {
					return err
				}
			}
			for i, a := range child.ptrs {
				if a != 0 {
					if err := fn(kindData, NDirect+np+slot*np+int64(i), a); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}
