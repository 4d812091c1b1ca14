package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"
	"strings"

	"repro/internal/vfs"
)

// On-disk layout. The log is a sequence of rotated segment files named
// {base}.{seq}.txnlog, each a fixed-size header block followed by 4 KB data
// blocks, created at full length (segFileSize) so that the blocks past the
// stream read as zeros. Each data block is a small header and PayloadSize
// bytes of the payload stream, and records may span block boundaries. The
// header is written once, by the force that starts the block, and holds only
// what never changes: the continuation flag (the block begins mid-record),
// the offset of the first record that starts in it, and its own CRC. Each
// record validates itself by its CRC, and the stream ends where the first
// record that does not decode — torn, or the zeros past the last — begins.
// So a later force that appends to the block changes only the bytes of its
// new records, and a file system that rewrites the block in place moves only
// the sectors they fill: a crash can tear those at any sector and leaves every
// record before them intact. An LSN names its block by arithmetic (Offset /
// PayloadSize) and its first byte within that block (Offset % PayloadSize):
// recovery seeks straight to the last checkpoint with no side structure to
// trust. A small anchor file {base}.ckpt records the LSN of the last durable
// checkpoint and the low-water segment sequence; segments below the low-water
// mark are dead and are deleted by checkpoint-driven truncation.
const (
	// BlockSize is the log block size: one file-system block. A block write
	// need not be atomic: FFS rewrites the tail block in place, moving only
	// the 512-byte sectors a force's records fill, so a crash can tear it at
	// any sector boundary.
	BlockSize = 4096
	// blockHdrSize is the per-block header: crc(4) flags(2) firstRec(2), crc
	// covering the two fields after it.
	blockHdrSize = 8
	// PayloadSize is the record bytes carried per block.
	PayloadSize = BlockSize - blockHdrSize

	// segMagic identifies a segment header block ("WSG1").
	segMagic = 0x31475357
	// anchorMagic identifies the checkpoint anchor file ("WCKP").
	anchorMagic = 0x504b4357
	// formatVersion is the segment/anchor format version: 2 since block
	// headers are written once and records validate themselves.
	formatVersion = 2

	// flagContinuation marks a block whose first payload bytes continue a
	// record begun in the previous block.
	flagContinuation = 1 << 0

	// noFirstRec is the firstRec sentinel for a block that contains no
	// record start (pure continuation).
	noFirstRec = 0xFFFF

	// anchorSize is the serialized anchor: magic(4) ver(2) pad(2)
	// ckptLSN(8) lowWater(8) crc(4).
	anchorSize = 28
)

// LSN is a log sequence number: a (segment sequence, stream offset) pair
// packed into one ordered integer. The stream offset is the byte position of
// the record in the segment's logical payload stream (block payloads
// concatenated), so LSNs compare correctly across forces, rotations, and
// recovery.
type LSN int64

const lsnOffBits = 40 // 1 TiB per segment, ~8.3M segments

// maxSegment is the largest segment sequence an LSN can carry. A sequence
// read from disk (a file name, the anchor's low-water mark) above it is
// damage: packed into an LSN it would wrap, and a scan from the wrapped
// LSN would walk billions of segment numbers.
const maxSegment = 1<<(63-lsnOffBits) - 1

// makeLSN packs a segment sequence and payload-stream offset.
func makeLSN(seq uint64, off int64) LSN {
	return LSN(int64(seq)<<lsnOffBits | off)
}

// Segment returns the segment sequence number the LSN falls in.
func (l LSN) Segment() uint64 { return uint64(l) >> lsnOffBits }

// Offset returns the payload-stream offset within the segment.
func (l LSN) Offset() int64 { return int64(l) & (1<<lsnOffBits - 1) }

// String renders an LSN as seq:offset.
func (l LSN) String() string {
	return fmt.Sprintf("%d:%d", l.Segment(), l.Offset())
}

// File naming.

func segName(base string, seq uint64) string {
	return fmt.Sprintf("%s.%d.txnlog", base, seq)
}

func anchorName(base string) string { return base + ".ckpt" }

// parseSegName extracts the sequence number from a directory entry name if
// it matches {baseName}.{seq}.txnlog.
func parseSegName(baseName, entry string) (uint64, bool) {
	if !strings.HasPrefix(entry, baseName+".") || !strings.HasSuffix(entry, ".txnlog") {
		return 0, false
	}
	mid := entry[len(baseName)+1 : len(entry)-len(".txnlog")]
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil || seq == 0 || seq > maxSegment {
		return 0, false
	}
	return seq, true
}

// discoverSegments lists the existing segment sequence numbers for base, in
// ascending order, by reading the base's parent directory.
func discoverSegments(fsys vfs.FileSystem, base string) ([]uint64, error) {
	dirParts, baseName, ok := vfs.SplitDirBase(base)
	if !ok {
		return nil, fmt.Errorf("wal: malformed log base %q", base)
	}
	dir := "/" + strings.Join(dirParts, "/")
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if e.IsDir {
			continue
		}
		if seq, ok := parseSegName(baseName, e.Name); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// Segment header block.

func encodeSegHeader(seq uint64) []byte {
	b := make([]byte, BlockSize)
	le := binary.LittleEndian
	le.PutUint32(b[0:], segMagic)
	le.PutUint16(b[4:], formatVersion)
	le.PutUint64(b[8:], seq)
	le.PutUint32(b[16:], BlockSize)
	le.PutUint32(b[20:], crc32.ChecksumIEEE(b[0:20]))
	return b
}

func decodeSegHeader(b []byte) (seq uint64, ok bool) {
	if len(b) < 24 {
		return 0, false
	}
	le := binary.LittleEndian
	if le.Uint32(b[0:]) != segMagic || le.Uint16(b[4:]) != formatVersion {
		return 0, false
	}
	if le.Uint32(b[16:]) != BlockSize {
		return 0, false
	}
	if le.Uint32(b[20:]) != crc32.ChecksumIEEE(b[0:20]) {
		return 0, false
	}
	return le.Uint64(b[8:]), true
}

// blockFileOff returns the file offset of data block n (block 0 is the
// first data block; the header occupies the file's first BlockSize bytes).
func blockFileOff(n int64) int64 { return BlockSize * (n + 1) }

// segFileSize is the length a segment file is created at: the header and
// every data block a stream of segBytes fills. Preallocated, a segment's block
// map never changes while its stream grows, so a force overwrites blocks the
// file already has and a commit's File.Sync has no inode to store. A block no
// force has reached yet, or one recovery cleared, is all zeros (frame.IsZero).
func segFileSize(segBytes int64) int64 {
	return blockFileOff((segBytes + PayloadSize - 1) / PayloadSize)
}

// encodeBlock fills dst (BlockSize bytes) with a data block: header +
// payload + zero padding. firstRec is the payload offset of the first record
// starting in the block, or noFirstRec; cont marks a continuation block.
func encodeBlock(dst, payload []byte, firstRec int, cont bool) {
	le := binary.LittleEndian
	clear(dst)
	var flags uint16
	if cont {
		flags |= flagContinuation
	}
	le.PutUint16(dst[4:], flags)
	le.PutUint16(dst[6:], uint16(firstRec))
	le.PutUint32(dst[0:], crc32.ChecksumIEEE(dst[4:blockHdrSize]))
	copy(dst[blockHdrSize:], payload)
}

// blockInfo is a decoded data-block header.
type blockInfo struct {
	firstRec int // payload offset, or noFirstRec
	cont     bool
}

// decodeBlock validates a data block's header and returns it. ok is false for
// a corrupt or never-started block: the durable stream ends before it.
func decodeBlock(b []byte) (blockInfo, bool) {
	le := binary.LittleEndian
	if len(b) < BlockSize || le.Uint32(b[0:]) != crc32.ChecksumIEEE(b[4:blockHdrSize]) {
		return blockInfo{}, false
	}
	return blockInfo{
		firstRec: int(le.Uint16(b[6:])),
		cont:     le.Uint16(b[4:])&flagContinuation != 0,
	}, true
}

// Anchor file.

type anchor struct {
	ckptLSN  LSN
	lowWater uint64
}

func encodeAnchor(a anchor) []byte {
	b := make([]byte, anchorSize)
	le := binary.LittleEndian
	le.PutUint32(b[0:], anchorMagic)
	le.PutUint16(b[4:], formatVersion)
	le.PutUint64(b[8:], uint64(a.ckptLSN))
	le.PutUint64(b[16:], a.lowWater)
	le.PutUint32(b[24:], crc32.ChecksumIEEE(b[0:24]))
	return b
}

func decodeAnchor(b []byte) (anchor, bool) {
	if len(b) < anchorSize {
		return anchor{}, false
	}
	le := binary.LittleEndian
	if le.Uint32(b[0:]) != anchorMagic || le.Uint16(b[4:]) != formatVersion {
		return anchor{}, false
	}
	if le.Uint32(b[24:]) != crc32.ChecksumIEEE(b[0:24]) {
		return anchor{}, false
	}
	a := anchor{ckptLSN: LSN(le.Uint64(b[8:])), lowWater: le.Uint64(b[16:])}
	if a.lowWater == 0 || a.lowWater > maxSegment || a.ckptLSN < 0 {
		return anchor{}, false
	}
	return a, true
}
