package wal

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/frame"
	"repro/internal/vfs"
)

// Dump prints a human-readable description of the log rooted at base — the
// checkpoint anchor, every segment's header, block headers (CRC status,
// flags, payload length, first-record offset), and decoded records — for
// offline inspection. It is a raw reader: torn or corrupt blocks and records
// are reported, not fatal, so it is usable on a crashed image.
func Dump(w io.Writer, fsys vfs.FileSystem, base string) error {
	// Anchor.
	if f, err := fsys.Open(anchorName(base)); err == nil {
		raw := make([]byte, anchorSize)
		n, _ := f.ReadAt(raw, 0)
		f.Close()
		if a, ok := decodeAnchor(raw[:n]); ok {
			fmt.Fprintf(w, "anchor %s: checkpoint=%s low-water=%d\n", anchorName(base), a.ckptLSN, a.lowWater)
		} else {
			fmt.Fprintf(w, "anchor %s: INVALID\n", anchorName(base))
		}
	} else {
		fmt.Fprintf(w, "anchor %s: missing (%v)\n", anchorName(base), err)
	}

	seqs, err := discoverSegments(fsys, base)
	if err != nil {
		return err
	}
	if len(seqs) == 0 {
		fmt.Fprintf(w, "no segments\n")
		return nil
	}
	for _, seq := range seqs {
		if err := dumpSegment(w, fsys, base, seq); err != nil {
			return err
		}
	}
	return nil
}

func dumpSegment(w io.Writer, fsys vfs.FileSystem, base string, seq uint64) error {
	name := segName(base, seq)
	f, err := fsys.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return err
	}
	raw := make([]byte, size)
	n, err := f.ReadAt(raw, 0)
	if err != nil {
		return err
	}
	raw = raw[:n]

	fmt.Fprintf(w, "\nsegment %s: %d bytes, %d data blocks\n", name, size, (size-BlockSize+BlockSize-1)/BlockSize)
	if got, ok := decodeSegHeader(raw); ok {
		fmt.Fprintf(w, "  header: magic ok, version %d, seq %d, block size %d\n", formatVersion, got, BlockSize)
		if got != seq {
			fmt.Fprintf(w, "  header: SEQ MISMATCH (file name says %d)\n", seq)
		}
	} else {
		fmt.Fprintf(w, "  header: INVALID\n")
	}

	// Blocks: report each header, accumulating the valid payload stream. A run
	// of unwritten blocks (the preallocated rest of the segment) is one line.
	var stream []byte
	streamDone := false
	for off, blk := BlockSize, int64(0); off+BlockSize <= len(raw); off, blk = off+BlockSize, blk+1 {
		if frame.IsZero(raw[off : off+BlockSize]) {
			first := blk
			for off+2*BlockSize <= len(raw) && frame.IsZero(raw[off+BlockSize:off+2*BlockSize]) {
				off, blk = off+BlockSize, blk+1
			}
			fmt.Fprintf(w, "  block %4d-%d: unwritten\n", first, blk)
			streamDone = true
			continue
		}
		bi, ok := decodeBlock(raw[off : off+BlockSize])
		if !ok {
			fmt.Fprintf(w, "  block %4d: BAD CRC (stored %08x) — torn\n", blk, binary.LittleEndian.Uint32(raw[off:]))
			streamDone = true
			continue
		}
		flags := ""
		if bi.cont {
			flags = " cont"
		}
		fr := "-"
		if bi.firstRec != noFirstRec {
			fr = fmt.Sprintf("%d", bi.firstRec)
		}
		fmt.Fprintf(w, "  block %4d: header ok, firstRec %s%s\n", blk, fr, flags)
		if !streamDone {
			stream = append(stream, raw[off+blockHdrSize:off+BlockSize]...)
		}
	}

	// Records.
	off := int64(0)
	for off < int64(len(stream)) {
		r, sz, err := decodeRecord(stream[off:])
		if err != nil {
			if !frame.IsZero(stream[off:]) {
				fmt.Fprintf(w, "  record @%s: TORN (%d trailing bytes undecodable)\n",
					makeLSN(seq, off), int64(len(stream))-off)
			}
			break
		}
		r.LSN = makeLSN(seq, off)
		fmt.Fprintf(w, "  record @%-12s %s\n", r.LSN, describeRecord(&r))
		off += int64(sz)
	}
	return nil
}

func describeRecord(r *Record) string {
	switch r.Type {
	case RecUpdate:
		return fmt.Sprintf("update  txn=%d file=%d block=%d off=%d before=%dB after=%dB",
			r.Txn, r.File, r.Block, r.Offset, len(r.Before), len(r.After))
	case RecCommit:
		return fmt.Sprintf("commit  txn=%d", r.Txn)
	case RecAbort:
		return fmt.Sprintf("abort   txn=%d", r.Txn)
	case RecCheckpoint:
		return fmt.Sprintf("ckpt    low-water=%d", r.File)
	default:
		return fmt.Sprintf("UNKNOWN type=%d txn=%d", r.Type, r.Txn)
	}
}
