package lfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
)

// testdata/lfsdump.img is a real device image, made by
//
//	go run ./cmd/lfsdump -disk-mb 6 -files 2 -rounds 3 -size 4096 -save internal/lfs/testdata/lfsdump.img
//
// Its partials carry data, inode packs, a deletion record, a pack-less
// commit force and a summary-only one. Re-make it when formatVersion
// changes; testdata/lfsdump-v3.img is the image of format version 3, which a
// mount must refuse (TestMountRefusesFormatV3).
const seedImageMB = 6

// seedImage returns the image's two checkpoint records, the summary blocks
// of its log and the inode pack blocks they describe.
func seedImage(tb testing.TB) (checkpoints, summaries, packs [][]byte) {
	tb.Helper()
	f, err := os.Open("testdata/lfsdump.img")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	clk := sim.NewClock()
	model := sim.RZ55Model()
	model.NumBlocks = seedImageMB << 20 / int64(model.BlockSize)
	dev, err := disk.LoadImage(model, clk, f)
	if err != nil {
		tb.Fatal(err)
	}
	read := func(addr, n int64) []byte {
		b := make([]byte, n*int64(model.BlockSize))
		for i := int64(0); i < n; i++ {
			if err := dev.Read(addr+i, b[i*int64(model.BlockSize):(i+1)*int64(model.BlockSize)]); err != nil {
				tb.Fatal(err)
			}
		}
		return b
	}
	sb, err := decodeSuperblock(read(superBlockAddr, 1))
	if err != nil {
		tb.Fatal(err)
	}
	for region := int64(0); region < 2; region++ {
		b := read(1+region*sb.CPBlocks, sb.CPBlocks)
		if _, err := decodeCheckpoint(b); err != nil {
			tb.Fatalf("checkpoint region %d: %v", region, err)
		}
		checkpoints = append(checkpoints, b[:binary.LittleEndian.Uint32(b[8:])])
	}
	for seg := int64(0); seg < sb.NumSegments; seg++ {
		for off := int64(0); off < sb.SegmentBlocks; {
			addr := sb.SegStart + seg*sb.SegmentBlocks + off
			b := read(addr, 1)
			sum, ok := decodeSummary(b, addr)
			if !ok {
				break
			}
			summaries = append(summaries, b)
			blk := addr + 1 // a deletion record describes no block
			for _, e := range sum.Entries {
				if e.Kind == kindInodePack {
					packs = append(packs, read(blk, 1))
				}
				if e.Kind != kindDelete {
					blk++
				}
			}
			off += 1 + int64(sum.NBlocks)
		}
	}
	if len(summaries) == 0 || len(packs) == 0 {
		tb.Fatalf("the seed image has %d summary blocks and %d inode packs", len(summaries), len(packs))
	}
	return checkpoints, summaries, packs
}

// sealCheckpoint recomputes a checkpoint record's CRC over the size its
// header claims, or over the whole record when that size cannot be.
func sealCheckpoint(b []byte) {
	size := int(binary.LittleEndian.Uint32(b[8:]))
	if size < 12 || size > len(b) {
		size = len(b)
	}
	crc := crc32.NewIEEE()
	crc.Write(b[0:4])
	crc.Write(b[8:size])
	binary.LittleEndian.PutUint32(b[4:], crc.Sum32())
}

// TestCheckpointRejectsHostileCounts: a checkpoint whose CRC holds can still
// claim more imap entries or segments than its bytes hold, a count that is
// negative as an int, or a segment entry no writer produces. Each is
// ErrCorrupt; none may index past the record.
func TestCheckpointRejectsHostileCounts(t *testing.T) {
	cp := checkpoint{CpSeq: 1, Imap: map[Ino]int64{1: 100}, Segs: []segInfo{{State: segInLog, Live: 3, SeqStamp: 2}}}
	const imapCount = 12 + 48           // after the header and six log-position fields
	const segCount = imapCount + 8 + 16 // after one imap entry
	const segEntry = segCount + 8       // the one segment entry
	le := binary.LittleEndian
	for _, c := range []struct {
		name string
		edit func(b []byte)
	}{
		{"imap count 2^40", func(b []byte) { le.PutUint64(b[imapCount:], 1<<40) }},
		{"negative imap count", func(b []byte) { le.PutUint64(b[imapCount:], 1<<63) }},
		{"segment count 2^40", func(b []byte) { le.PutUint64(b[segCount:], 1<<40) }},
		{"negative segment count", func(b []byte) { le.PutUint64(b[segCount:], 1<<63+1) }},
		{"segment count short of the bytes", func(b []byte) { le.PutUint64(b[segCount:], 0) }},
		{"state above reserved", func(b []byte) { b[segEntry] = byte(segReserved + 1) }},
		{"reserved slot set", func(b []byte) { b[segEntry+17] = 1 }},
		{"size below the fixed fields", func(b []byte) { le.PutUint32(b[8:], 12) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := cp.encode()
			c.edit(b)
			sealCheckpoint(b)
			if _, err := decodeCheckpoint(b); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decodeCheckpoint = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestSummaryRejectsReservedBytes: version 4 summaries leave half the old
// data-age slot and everything past the last record zero, and count their
// patches in the other half; a summary with any of them set is not one this
// format wrote.
func TestSummaryRejectsReservedBytes(t *testing.T) {
	s := summary{Seq: 1, SelfAddr: 10, NBlocks: 1, Entries: []summaryEntry{{Ino: 1, Kind: kindData}}}
	for _, at := range []int{40, 44, summaryHeaderSize + summaryEntrySize, 4095} {
		enc, _ := encodeSummary(&s)
		enc[at] = 1
		binary.LittleEndian.PutUint32(enc[4:], summaryChecksum(enc))
		if _, ok := decodeSummary(enc, 10); ok {
			t.Fatalf("summary with byte %d set decoded", at)
		}
	}
}

// FuzzDecodeCheckpoint feeds decodeCheckpoint what a damaged checkpoint
// region might hold, its CRC re-stamped so mutations reach the fields: the
// decoder returns a checkpoint or ErrCorrupt, never panics, and a record it
// accepts re-encodes to exactly its bytes.
func FuzzDecodeCheckpoint(f *testing.F) {
	cps, _, _ := seedImage(f)
	for _, b := range cps {
		f.Add(b)
	}
	hostile := bytes.Clone(cps[0])
	binary.LittleEndian.PutUint64(hostile[12+48:], 1<<40)
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) >= 12 {
			b = bytes.Clone(b)
			sealCheckpoint(b)
		}
		cp, err := decodeCheckpoint(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v is not ErrCorrupt", err)
			}
			return
		}
		size := binary.LittleEndian.Uint32(b[8:])
		if enc := cp.encode(); !bytes.Equal(enc, b[:size]) {
			t.Fatalf("accepted %d-byte record re-encodes to %d different bytes", size, len(enc))
		}
	})
}

// FuzzDecodeSummary feeds decodeSummary what a damaged log block might hold,
// its CRC re-stamped so mutations reach the fields, at the address the
// block claims for itself: the decoder never panics, and a summary it
// accepts re-encodes to exactly the block. The seeds are the image's
// summaries, a summary-only force among them, and two summaries of patches
// beside entries and deletion records.
func FuzzDecodeSummary(f *testing.F) {
	_, sums, _ := seedImage(f)
	patched := 0
	for _, b := range sums {
		if binary.LittleEndian.Uint32(b[40:]) > 0 {
			patched++
		}
		f.Add(b)
	}
	if patched == 0 {
		f.Fatal("the seed image has no summary-only force")
	}
	for _, s := range []summary{
		{Seq: 7, SelfAddr: 300, Entries: []summaryEntry{{Ino: 4, Kind: kindDelete}},
			Patches: []patch{{Ino: 2, LBN: 9, Off: 0, Data: []byte("header")}, {Ino: 2, LBN: 9, Off: 4000, Data: bytes.Repeat([]byte{7}, 96)}}},
		{Seq: 8, SelfAddr: 301, NBlocks: 1, Entries: []summaryEntry{{Ino: 2, Kind: kindData, Index: 3}},
			Patches: []patch{{Ino: 3, LBN: 1 << 40, Off: 4095, Data: []byte{1}}}},
	} {
		b, err := encodeSummary(&s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < summaryHeaderSize {
			if _, ok := decodeSummary(b, 0); ok {
				t.Fatalf("%d-byte block decoded", len(b))
			}
			return
		}
		b = bytes.Clone(b)
		binary.LittleEndian.PutUint32(b[4:], summaryChecksum(b))
		s, ok := decodeSummary(b, int64(binary.LittleEndian.Uint64(b[16:])))
		if !ok {
			return
		}
		enc := make([]byte, len(b))
		if err := s.encode(enc); err != nil {
			t.Fatalf("accepted summary does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, b) {
			t.Fatal("accepted summary re-encodes to different bytes")
		}
	})
}

// TestInodePackRejectsPadding: a pack block this format wrote has at least one
// record and zero in the header's pad, each record's pad (which the record's
// CRC covers) and every byte after the last record.
func TestInodePackRejectsPadding(t *testing.T) {
	_, _, packs := seedImage(t)
	le := binary.LittleEndian
	n := int(le.Uint32(packs[0][4:]))
	for _, c := range []struct {
		name string
		edit func(b []byte)
	}{
		{"zero count", func(b []byte) { le.PutUint32(b[4:], 0) }},
		{"header pad set", func(b []byte) { b[12] = 1 }},
		{"record pad set", func(b []byte) {
			rec := b[packHeader : packHeader+inodeWireSize]
			rec[37] = 1
			le.PutUint32(rec[4:], crc32.ChecksumIEEE(rec[8:]))
		}},
		{"byte after the last record", func(b []byte) { b[packHeader+n*inodeWireSize] = 1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := bytes.Clone(packs[0])
			if _, err := decodeInodePack(b); err != nil {
				t.Fatalf("the seed pack does not decode: %v", err)
			}
			c.edit(b)
			if _, err := decodeInodePack(b); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decodeInodePack = %v, want ErrCorrupt", err)
			}
		})
	}
}

// FuzzDecodeInodePack feeds decodeInodePack what a damaged pack block might
// hold, each record's CRC re-stamped so mutations reach the fields: the
// decoder returns records or ErrCorrupt, never panics, and a block it accepts
// re-encodes to exactly its bytes.
func FuzzDecodeInodePack(f *testing.F) {
	_, _, packs := seedImage(f)
	for _, b := range packs {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		b = bytes.Clone(b)
		for off := packHeader; off+inodeWireSize <= len(b); off += inodeWireSize {
			rec := b[off : off+inodeWireSize]
			binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(rec[8:]))
		}
		inodes, err := decodeInodePack(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v is not ErrCorrupt", err)
			}
			return
		}
		enc := make([]byte, len(b))
		encodeInodePack(enc, inodes)
		if !bytes.Equal(enc, b) {
			t.Fatalf("accepted pack of %d inodes re-encodes to different bytes", len(inodes))
		}
	})
}
