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
// stream read as zeros. Every data block is independently CRC-protected and
// records may span block boundaries (the continuation flag marks a block that
// begins mid-record), so a torn write at a segment tail invalidates exactly
// the blocks it tore and nothing before them. A force rewrites the stream's
// tail block in place, and the file system may move only its leading sectors,
// so the block also carries the length and CRC of the payload it held durable
// before the rewrite: a rewrite torn at a sector boundary still yields that
// payload (decodeBlock). Every block carries exactly
// PayloadSize stream bytes except a segment's last, so an LSN names its
// block by arithmetic (Offset / PayloadSize) and its first byte within that
// block (Offset % PayloadSize): recovery seeks straight to the last
// checkpoint with no side structure to trust. A small anchor file
// {base}.ckpt records the LSN of the last durable checkpoint and the
// low-water segment sequence; segments below the low-water mark are dead and
// are deleted by checkpoint-driven truncation.
const (
	// BlockSize is the log block size: one file-system block. A block write
	// need not be atomic: FFS rewrites the tail block in place and may move
	// only its leading 512-byte sectors, so a crash can tear it at any sector
	// boundary (see the header's durable fields).
	BlockSize = 4096
	// blockHdrSize is the per-block header: crc(4) flags(2) dataLen(2)
	// firstRec(2) durLen(2) durCRC(4). crc covers the header after it and the
	// payload; durLen is how many leading payload bytes the block held
	// durable before this write of it, and durCRC their CRC32.
	blockHdrSize = 16
	// PayloadSize is the record bytes carried per block.
	PayloadSize = BlockSize - blockHdrSize

	// segMagic identifies a segment header block ("WSG1").
	segMagic = 0x31475357
	// anchorMagic identifies the checkpoint anchor file ("WCKP").
	anchorMagic = 0x504b4357
	// formatVersion is the segment/anchor format version.
	formatVersion = 1

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
// file already has and a commit's File.Sync has no inode to store.
func segFileSize(segBytes int64) int64 {
	return blockFileOff((segBytes + PayloadSize - 1) / PayloadSize)
}

// unwritten reports whether a block is all zeros: a block of a preallocated
// segment that no force has reached yet, or one recovery cleared.
func unwritten(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// encodeBlock fills dst (BlockSize bytes) with a data block: header +
// payload + zero padding. firstRec is the payload offset of the first record
// starting in the block, or noFirstRec; cont marks a continuation block;
// durable is how many leading payload bytes were durable in the block before
// this write of it.
func encodeBlock(dst, payload []byte, firstRec int, cont bool, durable int) {
	le := binary.LittleEndian
	for i := range dst {
		dst[i] = 0
	}
	var flags uint16
	if cont {
		flags |= flagContinuation
	}
	le.PutUint16(dst[4:], flags)
	le.PutUint16(dst[6:], uint16(len(payload)))
	le.PutUint16(dst[8:], uint16(firstRec))
	if durable > 0 {
		le.PutUint16(dst[10:], uint16(durable))
		le.PutUint32(dst[12:], crc32.ChecksumIEEE(payload[:durable]))
	}
	copy(dst[blockHdrSize:], payload)
	le.PutUint32(dst[0:], crc32.ChecksumIEEE(dst[4:blockHdrSize+len(payload)]))
}

// blockInfo is a decoded data-block header.
type blockInfo struct {
	dataLen  int
	firstRec int // payload offset, or noFirstRec
	cont     bool
}

// decodeBlock validates a data block and returns its header. ok is false for
// a torn, corrupt, or never-written block — the durable stream ends at the
// previous block. A block whose CRC fails but whose durable payload's CRC
// holds is a tail-block rewrite torn at a sector boundary: its header sector
// is new and its durable payload is intact, so it decodes as that payload
// alone, with no record start unless one lies inside it.
func decodeBlock(b []byte) (blockInfo, bool) {
	if len(b) < BlockSize {
		return blockInfo{}, false
	}
	le := binary.LittleEndian
	dataLen := int(le.Uint16(b[6:]))
	if dataLen == 0 || dataLen > PayloadSize {
		return blockInfo{}, false
	}
	firstRec := int(le.Uint16(b[8:]))
	if le.Uint32(b[0:]) != crc32.ChecksumIEEE(b[4:blockHdrSize+dataLen]) {
		dur := int(le.Uint16(b[10:]))
		if dur == 0 || dur > dataLen || le.Uint32(b[12:]) != crc32.ChecksumIEEE(b[blockHdrSize:blockHdrSize+dur]) {
			return blockInfo{}, false
		}
		dataLen = dur
		if firstRec >= dur {
			firstRec = noFirstRec
		}
	}
	return blockInfo{
		dataLen:  dataLen,
		firstRec: firstRec,
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
