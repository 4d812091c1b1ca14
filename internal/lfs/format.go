// Package lfs implements a log-structured file system in the style of
// Rosenblum & Ousterhout's Sprite LFS [11,12], the substrate of the paper.
//
// All data — file blocks, indirect blocks, inodes — is written in large
// sequential units called segments. Each flush produces a "partial segment":
// a summary block followed by the blocks it describes, appended at the
// current position of the log. Nothing is ever overwritten in place; the
// inode map (imap) records where the newest version of each inode lives, and
// a cleaner reclaims segments whose blocks have mostly died. Two alternating
// checkpoint regions record the imap, the segment usage table, and the log
// position; mounting loads the newest checkpoint and rolls the log forward
// through the summary-block chain.
//
// The no-overwrite policy is what the embedded transaction manager
// (internal/core) exploits: before-images of updated pages remain in the log
// until the cleaner reclaims them, so transaction abort needs no undo log —
// it simply discards the not-yet-written buffers (§2 of the paper).
package lfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/disk"
	"repro/internal/ufs"
)

// Ino is an inode number.
type Ino = ufs.Ino

// RootIno is the inode number of the root directory.
const RootIno = ufs.RootIno

// Layout and format constants.
const (
	superMagic   = 0x4c465331 // "LFS1"
	cpMagic      = 0x4c465343 // "LFSC"
	summaryMagic = 0x4c465353 // "LFSS"
	inodeMagic   = 0x4c465349 // "LFSI"

	// formatVersion is the on-disk format version. Version 2 added the
	// payload CRC to segment summaries (a summary vouches for the blocks it
	// describes, so roll-forward can detect a torn multi-block segment
	// write) and the version field itself to the superblock. Version 3
	// retired the data-age stamp of summaries and checkpoint segment
	// entries: its slots stay where they were, reserved and zero. Version 4
	// put patch records in summaries (a summary-only commit force) and their
	// count in the first half of that summary slot. Version 5 put the
	// summary's sector count in the other half: a summary covers, and its
	// CRC vouches for, only the sectors it fills, so a partial segment of its
	// summary alone is a sub-block write.
	formatVersion = 5

	// NDirect is the number of direct block pointers in an inode.
	NDirect = 12

	// superBlockAddr is the disk address of the superblock.
	superBlockAddr = 0

	// defaultSegmentBlocks is the default segment size in blocks
	// (128 × 4 KB = 512 KB, within the 256 KB–1 MB range Sprite LFS used).
	defaultSegmentBlocks = 128

	// defaultCheckpointBlocks is the size of each checkpoint region.
	defaultCheckpointBlocks = 64

	// minSegmentTail: when fewer blocks than this remain in the current
	// segment, the writer advances to the next segment rather than writing
	// a tiny partial segment. A flush of several partials fills a segment
	// to within this many blocks (takeChunk).
	minSegmentTail = 4

	// maxFilesPerPartial bounds the distinct files in one partial segment.
	maxFilesPerPartial = 8
)

// Errors.
var (
	ErrNoSpace      = errors.New("lfs: no clean segments (disk full)")
	ErrCorrupt      = errors.New("lfs: corrupt on-disk structure")
	ErrFileTooLarge = errors.New("lfs: file exceeds maximum mappable size")
)

// superblock is the static description of the file system, stored at block 0.
type superblock struct {
	Magic         uint32
	Version       uint32
	BlockSize     uint32
	TotalBlocks   int64
	SegmentBlocks int64
	CPBlocks      int64 // blocks per checkpoint region
	SegStart      int64 // first block of segment 0
	NumSegments   int64
}

func (sb *superblock) encode(blockSize int) []byte {
	b := make([]byte, blockSize)
	le := binary.LittleEndian
	le.PutUint32(b[0:], sb.Magic)
	le.PutUint32(b[4:], sb.BlockSize)
	le.PutUint64(b[8:], uint64(sb.TotalBlocks))
	le.PutUint64(b[16:], uint64(sb.SegmentBlocks))
	le.PutUint64(b[24:], uint64(sb.CPBlocks))
	le.PutUint64(b[32:], uint64(sb.SegStart))
	le.PutUint64(b[40:], uint64(sb.NumSegments))
	le.PutUint32(b[48:], sb.Version)
	le.PutUint32(b[52:], crc32.ChecksumIEEE(b[0:52]))
	return b
}

func decodeSuperblock(b []byte) (superblock, error) {
	var sb superblock
	if len(b) < 56 {
		return sb, fmt.Errorf("%w: short superblock", ErrCorrupt)
	}
	le := binary.LittleEndian
	if le.Uint32(b[52:]) != crc32.ChecksumIEEE(b[0:52]) {
		return sb, fmt.Errorf("%w: superblock checksum", ErrCorrupt)
	}
	sb.Magic = le.Uint32(b[0:])
	if sb.Magic != superMagic {
		return sb, fmt.Errorf("%w: bad superblock magic %#x", ErrCorrupt, sb.Magic)
	}
	sb.BlockSize = le.Uint32(b[4:])
	sb.TotalBlocks = int64(le.Uint64(b[8:]))
	sb.SegmentBlocks = int64(le.Uint64(b[16:]))
	sb.CPBlocks = int64(le.Uint64(b[24:]))
	sb.SegStart = int64(le.Uint64(b[32:]))
	sb.NumSegments = int64(le.Uint64(b[40:]))
	sb.Version = le.Uint32(b[48:])
	if sb.Version != formatVersion {
		return sb, fmt.Errorf("%w: format version %d, want %d", ErrCorrupt, sb.Version, formatVersion)
	}
	return sb, nil
}

// segState describes a segment's lifecycle.
type segState uint8

const (
	segFree     segState = iota // clean, available for writing
	segInLog                    // written, part of the log
	segCurrent                  // the segment being filled
	segReserved                 // pre-allocated as the next segment (log chaining)
)

// segInfo is one entry of the in-memory segment usage table.
type segInfo struct {
	State    segState
	Live     int64  // live blocks that would need copying to clean this segment
	SeqStamp uint64 // summary sequence of the most recent write into the segment
}

// blockKind tags an entry in a segment summary.
type blockKind uint8

const (
	kindData      blockKind = iota // file data block; Index = logical block number
	kindInodePack                  // packed inode block; Index = number of inodes inside
	kindInd                        // single indirect pointer block
	kindDInd                       // double indirect pointer block
	kindDChild                     // child of the double indirect block; Index = child slot
	kindDelete                     // deletion record (no block follows); logged for roll-forward
)

// summaryEntry describes one block of a partial segment (or a deletion).
type summaryEntry struct {
	Ino   Ino
	Kind  blockKind
	Index int64
}

const summaryEntrySize = 8 + 1 + 8 // ino + kind + index

// countKinds tallies summary entries by kind.
func countKinds(entries []summaryEntry) (n [kindDelete + 1]int64) {
	for _, e := range entries {
		if e.Kind <= kindDelete {
			n[e.Kind]++
		}
	}
	return n
}

// summaryHeader precedes the entries in a summary block.
//
//	magic    uint32
//	crc      uint32   (over everything except itself)
//	seq      uint64   (monotonic partial-segment sequence)
//	selfAddr int64    (disk address of this summary block — defeats stale data)
//	nextSeg  int64    (pre-allocated successor segment, for roll-forward chaining)
//	nBlocks  uint32   (blocks following the summary)
//	nEntries uint32   (summary entries, = nBlocks + deletion records)
//	nPatches uint32   (patch records after the entries)
//	sectors  uint32   (512-byte sectors the summary fills: the fewest that
//	                   hold its header, entries and patch records)
//	payloadCRC uint32 (CRC32 over the nBlocks described blocks, in order —
//	                   lets roll-forward detect a torn multi-block segment
//	                   write whose summary block survived)
//	flags    uint32   (sumFlagCont: this partial does not complete its flush
//	                   batch; roll-forward must withhold the whole chain
//	                   until the terminating partial is seen intact)
//
// The entries follow the header, then the patch records; the rest of the
// summary's last sector is zero. Bytes of the block past its sectors are not
// the summary's: a partial segment with no blocks after its summary writes
// only those sectors (writePartialLocked), and the rest of the block keeps
// whatever an earlier use of the address left there.
const summaryHeaderSize = 4 + 4 + 8 + 8 + 8 + 4 + 4 + 4 + 4 + 4 + 4

// sumFlagCont marks a partial segment whose flush batch continues in the
// next partial. A commit force writes all of a transaction's dirty pages in
// one flushLocked call; when they do not fit a single partial segment, every
// partial but the last carries this flag so recovery can treat the batch
// atomically — applying a prefix would expose a half-committed transaction.
const sumFlagCont = 1

// maxSummaryEntries is how many entries fit in one summary block.
func maxSummaryEntries(blockSize int) int {
	return (blockSize - summaryHeaderSize) / summaryEntrySize
}

// patch is a summary's record of bytes a summary-only commit force made
// durable for a block it did not log: Data goes at offset Off of logical
// block LBN of file Ino. Roll-forward lays a block's patches, in sequence
// order, over its last logged copy (zeros for a hole).
//
//	ino    uint64
//	lbn    uint64
//	off    uint16
//	length uint16   (non-zero; off + length ≤ the block size)
//	bytes  [length]
type patch struct {
	Ino  Ino
	LBN  int64
	Off  int
	Data []byte
}

const patchHeaderSize = 8 + 8 + 2 + 2

// patchRoom is how many bytes of patch records (headers included) fit in a
// summary block beside nEntries entries.
func patchRoom(blockSize, nEntries int) int {
	return blockSize - summaryHeaderSize - nEntries*summaryEntrySize
}

// patchSize returns the encoded size of patches.
func patchSize(patches []patch) int {
	n := 0
	for _, p := range patches {
		n += patchHeaderSize + len(p.Data)
	}
	return n
}

type summary struct {
	Seq        uint64
	SelfAddr   int64
	NextSeg    int64
	NBlocks    int
	PayloadCRC uint32
	Flags      uint32
	Entries    []summaryEntry
	Patches    []patch
}

// sectors returns how many sectors the summary fills.
func (s *summary) sectors() int {
	n := summaryHeaderSize + len(s.Entries)*summaryEntrySize + patchSize(s.Patches)
	return (n + disk.SectorSize - 1) / disk.SectorSize
}

// encode fills block b with the summary: its sectors, and zeros after them.
func (s *summary) encode(b []byte) error {
	sectors := s.sectors()
	if sectors*disk.SectorSize > len(b) {
		return fmt.Errorf("lfs: %d summary entries and %d patch bytes exceed a %d-byte block", len(s.Entries), patchSize(s.Patches), len(b))
	}
	clear(b)
	le := binary.LittleEndian
	le.PutUint32(b[0:], summaryMagic)
	le.PutUint64(b[8:], s.Seq)
	le.PutUint64(b[16:], uint64(s.SelfAddr))
	le.PutUint64(b[24:], uint64(s.NextSeg))
	le.PutUint32(b[32:], uint32(s.NBlocks))
	le.PutUint32(b[36:], uint32(len(s.Entries)))
	le.PutUint32(b[40:], uint32(len(s.Patches)))
	le.PutUint32(b[44:], uint32(sectors))
	le.PutUint32(b[48:], s.PayloadCRC)
	le.PutUint32(b[52:], s.Flags)
	off := summaryHeaderSize
	for _, e := range s.Entries {
		le.PutUint64(b[off:], uint64(e.Ino))
		b[off+8] = byte(e.Kind)
		le.PutUint64(b[off+9:], uint64(e.Index))
		off += summaryEntrySize
	}
	for _, p := range s.Patches {
		if len(p.Data) == 0 || p.Off < 0 || p.Off+len(p.Data) > len(b) {
			return fmt.Errorf("lfs: patch of %d bytes at offset %d of block %d of inode %d", len(p.Data), p.Off, p.LBN, p.Ino)
		}
		le.PutUint64(b[off:], uint64(p.Ino))
		le.PutUint64(b[off+8:], uint64(p.LBN))
		le.PutUint16(b[off+16:], uint16(p.Off))
		le.PutUint16(b[off+18:], uint16(len(p.Data)))
		off += patchHeaderSize
		off += copy(b[off:], p.Data)
	}
	le.PutUint32(b[4:], summaryChecksum(b[:sectors*disk.SectorSize]))
	return nil
}

// summaryChecksum covers a summary's sectors, sum, except the CRC field
// itself.
func summaryChecksum(sum []byte) uint32 {
	crc := crc32.NewIEEE()
	crc.Write(sum[0:4])
	crc.Write(sum[8:])
	return crc.Sum32()
}

// payloadChecksum is the CRC32 over a partial segment's described blocks in
// log order — the value the summary's payloadCRC field vouches for.
func payloadChecksum(bufs [][]byte) uint32 {
	crc := crc32.NewIEEE()
	for _, b := range bufs {
		crc.Write(b)
	}
	return crc.Sum32()
}

// decodeSummary parses a block as a summary. It returns ok=false (not an
// error) if the block is not a valid summary written at addr — used by
// roll-forward, where encountering a non-summary block means end of log. A
// sector count other than the fewest that hold the records, a patch that
// overruns the block it names or the summary itself, or a byte set past the
// last record in its sector makes a block no summary of this format, so what
// it accepts re-encodes to the same sectors. Bytes past those sectors are
// ignored. The patches' Data alias b.
func decodeSummary(block []byte, addr int64) (summary, bool) {
	var s summary
	if len(block) < summaryHeaderSize {
		return s, false
	}
	le := binary.LittleEndian
	if le.Uint32(block[0:]) != summaryMagic {
		return s, false
	}
	sectors := int(le.Uint32(block[44:]))
	if sectors < 1 || sectors > len(block)/disk.SectorSize {
		return s, false
	}
	b := block[:sectors*disk.SectorSize]
	if le.Uint32(b[4:]) != summaryChecksum(b) {
		return s, false
	}
	s.Seq = le.Uint64(b[8:])
	s.SelfAddr = int64(le.Uint64(b[16:]))
	if s.SelfAddr != addr {
		return s, false // a relocated copy of an old summary (e.g. cleaner artifact)
	}
	s.NextSeg = int64(le.Uint64(b[24:]))
	s.NBlocks = int(le.Uint32(b[32:]))
	nPatches := int(le.Uint32(b[40:]))
	s.PayloadCRC = le.Uint32(b[48:])
	s.Flags = le.Uint32(b[52:])
	n := int(le.Uint32(b[36:]))
	if n < 0 || n > maxSummaryEntries(len(b)) {
		return s, false
	}
	// Every described block consumes an entry, so NBlocks can never exceed
	// the entry count; rejecting the excess bounds how much garbage a
	// corrupt-but-checksum-colliding summary could make a reader fetch.
	if s.NBlocks < 0 || s.NBlocks > n {
		return s, false
	}
	off := summaryHeaderSize
	s.Entries = make([]summaryEntry, n)
	for i := 0; i < n; i++ {
		s.Entries[i].Ino = Ino(le.Uint64(b[off:]))
		s.Entries[i].Kind = blockKind(b[off+8])
		s.Entries[i].Index = int64(le.Uint64(b[off+9:]))
		off += summaryEntrySize
	}
	// Each patch takes at least patchHeaderSize + 1 bytes, which bounds the
	// count before anything is allocated for it.
	if nPatches < 0 || nPatches > (len(b)-off)/(patchHeaderSize+1) {
		return s, false
	}
	if nPatches > 0 {
		s.Patches = make([]patch, nPatches)
	}
	for i := range s.Patches {
		if len(b)-off < patchHeaderSize {
			return s, false
		}
		p := &s.Patches[i]
		p.Ino = Ino(le.Uint64(b[off:]))
		p.LBN = int64(le.Uint64(b[off+8:]))
		p.Off = int(le.Uint16(b[off+16:]))
		n := int(le.Uint16(b[off+18:]))
		off += patchHeaderSize
		if n == 0 || p.Off+n > len(block) || n > len(b)-off {
			return s, false
		}
		p.Data = b[off : off+n]
		off += n
	}
	if !allZero(b[off:]) || s.sectors() != sectors {
		return s, false
	}
	return s, true
}

// allZero reports whether every byte of b is zero.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
