package lfs

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"repro/internal/disk"
	"repro/internal/ufs"
)

// The encoders fill a caller-supplied block (the segment writer hands them
// recycled frames, deliberately dirty here); these wrap them for the
// round-trip tests.
func dirtyBlock(n int) []byte { return bytes.Repeat([]byte{0xDB}, n) }

func encodeSummary(s *summary) ([]byte, error) {
	b := dirtyBlock(4096)
	return b, s.encode(b)
}

// sealSummary re-stamps a summary block's CRC over the sectors its header
// claims, or over the whole block when it cannot hold them, so an edit to
// the block reaches the decoder's other checks.
func sealSummary(b []byte) {
	n := int(binary.LittleEndian.Uint32(b[44:])) * disk.SectorSize
	if n < summaryHeaderSize || n > len(b) {
		n = len(b)
	}
	binary.LittleEndian.PutUint32(b[4:], summaryChecksum(b[:n]))
}

func wireOf(in *inode) []byte {
	b := dirtyBlock(inodeWireSize)
	in.encodeWire(b)
	return b
}

func packOf(inodes []*inode) []byte {
	b := dirtyBlock(4096)
	encodeInodePack(b, inodes)
	return b
}

func TestSuperblockRoundTrip(t *testing.T) {
	sb := superblock{
		Magic:         superMagic,
		Version:       formatVersion,
		BlockSize:     4096,
		TotalBlocks:   76800,
		SegmentBlocks: 128,
		CPBlocks:      64,
		SegStart:      129,
		NumSegments:   599,
	}
	got, err := decodeSuperblock(sb.encode(4096))
	if err != nil {
		t.Fatal(err)
	}
	if got != sb {
		t.Fatalf("round trip: %+v != %+v", got, sb)
	}
}

func TestSuperblockRejectsCorruption(t *testing.T) {
	sb := superblock{Magic: superMagic, Version: formatVersion, BlockSize: 4096, TotalBlocks: 100, SegmentBlocks: 16, CPBlocks: 4, SegStart: 9, NumSegments: 5}
	b := sb.encode(4096)
	b[10] ^= 0xff
	if _, err := decodeSuperblock(b); err == nil {
		t.Fatal("corrupted superblock should fail checksum")
	}
}

func TestSuperblockRejectsOldFormatVersion(t *testing.T) {
	sb := superblock{Magic: superMagic, Version: formatVersion - 1, BlockSize: 4096, TotalBlocks: 100, SegmentBlocks: 16, CPBlocks: 4, SegStart: 9, NumSegments: 5}
	if _, err := decodeSuperblock(sb.encode(4096)); err == nil {
		t.Fatal("pre-payload-CRC format version must be rejected")
	}
}

func TestSummaryRoundTrip(t *testing.T) {
	s := summary{
		Seq:      42,
		SelfAddr: 777,
		NextSeg:  9,
		NBlocks:  3,
		Entries: []summaryEntry{
			{Ino: 2, Kind: kindData, Index: 10},
			{Ino: 2, Kind: kindInd, Index: 0},
			{Kind: kindInodePack, Index: 2},
			{Ino: 5, Kind: kindDelete},
		},
	}
	enc, err := encodeSummary(&s)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decodeSummary(enc, 777)
	if !ok {
		t.Fatal("decode failed")
	}
	if got.Seq != s.Seq || got.NextSeg != s.NextSeg || got.NBlocks != s.NBlocks || len(got.Entries) != len(s.Entries) {
		t.Fatalf("round trip: %+v", got)
	}
	for i := range s.Entries {
		if got.Entries[i] != s.Entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got.Entries[i], s.Entries[i])
		}
	}
}

func TestSummaryRejectsWrongAddress(t *testing.T) {
	s := summary{Seq: 1, SelfAddr: 100, NBlocks: 0}
	enc, _ := encodeSummary(&s)
	// A relocated copy (e.g. moved by a buggy cleaner) must not decode at
	// a different address.
	if _, ok := decodeSummary(enc, 200); ok {
		t.Fatal("summary decoded at the wrong address")
	}
	if _, ok := decodeSummary(enc, 100); !ok {
		t.Fatal("summary should decode at its own address")
	}
}

func TestSummaryRejectsBitFlips(t *testing.T) {
	s := summary{Seq: 7, SelfAddr: 50, NBlocks: 1, Entries: []summaryEntry{{Ino: 1, Kind: kindData, Index: 0}}}
	enc, _ := encodeSummary(&s)
	enc[20] ^= 1
	if _, ok := decodeSummary(enc, 50); ok {
		t.Fatal("bit-flipped summary should fail its checksum")
	}
	// The checksum covers every sector the summary fills: a flip in the
	// second sector of a two-sector summary (the tail of its patch) fails it
	// too.
	s = summary{Seq: 8, SelfAddr: 51, Patches: []patch{{Ino: 1, LBN: 2, Data: make([]byte, 700)}}}
	enc, _ = encodeSummary(&s)
	enc[disk.SectorSize+100] ^= 1
	if _, ok := decodeSummary(enc, 51); ok {
		t.Fatal("a summary flipped in its second sector should fail its checksum")
	}
}

func TestSummaryCapacity(t *testing.T) {
	max := maxSummaryEntries(4096)
	entries := make([]summaryEntry, max+1)
	s := summary{Entries: entries}
	if _, err := encodeSummary(&s); err == nil {
		t.Fatal("over-capacity summary should fail to encode")
	}
	s.Entries = entries[:max]
	if _, err := encodeSummary(&s); err != nil {
		t.Fatalf("at-capacity summary should encode: %v", err)
	}
}

func TestInodeWireRoundTrip(t *testing.T) {
	in := &inode{
		Inode: ufs.Inode{
			Ino:   77,
			Mode:  ufs.ModeFile,
			Flags: ufs.FlagTxnProtected,
			Size:  123456,
			Nlink: 1,
			Mtime: 999,
		},
		indAddr:  500,
		dindAddr: 600,
	}
	for i := range in.direct {
		in.direct[i] = int64(1000 + i)
	}
	got, err := decodeInodeWire(wireOf(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.Ino != in.Ino || got.Mode != in.Mode || got.Flags != in.Flags ||
		got.Size != in.Size || got.Mtime != in.Mtime ||
		got.indAddr != in.indAddr || got.dindAddr != in.dindAddr || got.direct != in.direct {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if !got.TxnProtected() {
		t.Fatal("txn flag lost")
	}
}

func TestInodeWireRejectsCorruption(t *testing.T) {
	in := &inode{Inode: ufs.Inode{Ino: 1, Mode: ufs.ModeDir}}
	b := wireOf(in)
	b[30] ^= 0x10
	if _, err := decodeInodeWire(b); err == nil {
		t.Fatal("corrupted inode record should fail")
	}
}

func TestInodePackRoundTrip(t *testing.T) {
	var inodes []*inode
	for i := 0; i < 5; i++ {
		inodes = append(inodes, &inode{Inode: ufs.Inode{Ino: Ino(i + 2), Mode: ufs.ModeFile, Size: int64(i * 100)}})
	}
	pack := packOf(inodes)
	got, err := decodeInodePack(pack)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("decoded %d inodes", len(got))
	}
	for i := range inodes {
		if got[i].Ino != inodes[i].Ino || got[i].Size != inodes[i].Size {
			t.Fatalf("inode %d mismatch", i)
		}
	}
}

func TestInodePackCapacity(t *testing.T) {
	capacity := maxInodesPerPack(4096)
	if capacity < 8 {
		t.Fatalf("pack capacity %d too small to be useful", capacity)
	}
	if packHeader+capacity*inodeWireSize > 4096 {
		t.Fatal("capacity formula overflows the block")
	}
}

func TestInodePackRejectsGarbage(t *testing.T) {
	if _, err := decodeInodePack(make([]byte, 4096)); err == nil {
		t.Fatal("zero block is not a pack")
	}
}

func TestCheckpointRoundTripProperty(t *testing.T) {
	prop := func(seed uint32, nImap uint8, nSegs uint8) bool {
		cp := checkpoint{
			CpSeq:   uint64(seed),
			Seq:     uint64(seed) * 3,
			NextIno: Ino(seed % 1000),
			CurSeg:  int64(seed % 50),
			CurOff:  int64(seed % 128),
			NextSeg: int64(seed%50) + 1,
			Imap:    map[Ino]int64{},
		}
		for i := 0; i < int(nImap); i++ {
			cp.Imap[Ino(i+1)] = int64(seed) + int64(i)*7
		}
		cp.Segs = make([]segInfo, nSegs)
		for i := range cp.Segs {
			cp.Segs[i] = segInfo{State: segState(i % 4), Live: int64(i), SeqStamp: uint64(i) * 2}
		}
		got, err := decodeCheckpoint(cp.encode())
		if err != nil {
			return false
		}
		if got.CpSeq != cp.CpSeq || got.Seq != cp.Seq || got.NextIno != cp.NextIno ||
			got.CurSeg != cp.CurSeg || got.CurOff != cp.CurOff || got.NextSeg != cp.NextSeg {
			return false
		}
		if len(got.Imap) != len(cp.Imap) || len(got.Segs) != len(cp.Segs) {
			return false
		}
		for k, v := range cp.Imap {
			if got.Imap[k] != v {
				return false
			}
		}
		for i := range cp.Segs {
			if got.Segs[i] != cp.Segs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	cp := checkpoint{CpSeq: 1, Imap: map[Ino]int64{1: 100}, Segs: []segInfo{{}}}
	b := cp.encode()
	b[15] ^= 0xff
	if _, err := decodeCheckpoint(b); err == nil {
		t.Fatal("corrupted checkpoint should fail checksum")
	}
}

// TestTornLogTailRecovery simulates a crash that tears the most recent
// partial segment: the summary block is corrupted on disk, and roll-forward
// must stop there cleanly, recovering everything before it.
func TestTornLogTailRecovery(t *testing.T) {
	fs, dev, clk := newFS(t)
	writeFile(t, fs, "/safe", pattern(8192, 1))
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	// Record the log head, then write more and corrupt that partial's
	// summary — as if the write tore.
	tornAddr := fs.segBase(fs.curSeg) + fs.curOff
	writeFile(t, fs, "/torn", pattern(4096, 2))
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, dev.BlockSize())
	for i := range garbage {
		garbage[i] = 0xde
	}
	if err := dev.Write(tornAddr, garbage); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(dev, clk, fs.opts)
	if err != nil {
		t.Fatalf("mount after torn tail: %v", err)
	}
	if got := readFile(t, fs2, "/safe"); !bytes_Equal(got, pattern(8192, 1)) {
		t.Fatal("data before the tear must survive")
	}
	// The torn file may or may not be visible; the mount must simply not
	// fail and the surviving state must be consistent.
	if _, _, diff, err := fs2.AuditUsage(); err != nil || len(diff) != 0 {
		t.Fatalf("usage inconsistent after torn-tail recovery: %v %v", diff, err)
	}
}

func bytes_Equal(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSummaryPayloadCRCRoundTrip(t *testing.T) {
	payload := [][]byte{pattern(4096, 3), pattern(4096, 4)}
	s := summary{
		Seq: 9, SelfAddr: 321, NBlocks: 2,
		PayloadCRC: payloadChecksum(payload),
		Entries: []summaryEntry{
			{Ino: 2, Kind: kindData, Index: 0},
			{Ino: 2, Kind: kindData, Index: 1},
		},
	}
	enc, err := encodeSummary(&s)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decodeSummary(enc, 321)
	if !ok {
		t.Fatal("decode failed")
	}
	if got.PayloadCRC != s.PayloadCRC {
		t.Fatalf("payload CRC %#x != %#x", got.PayloadCRC, s.PayloadCRC)
	}
	if got.PayloadCRC == payloadChecksum([][]byte{pattern(4096, 3), pattern(4096, 5)}) {
		t.Fatal("different payloads should not share a CRC")
	}
}

func TestSummaryRejectsBlockCountAboveEntries(t *testing.T) {
	s := summary{Seq: 1, SelfAddr: 10, NBlocks: 1, Entries: []summaryEntry{{Ino: 1, Kind: kindData}}}
	enc, _ := encodeSummary(&s)
	// Forge NBlocks > nEntries and re-seal the summary checksum: the decoder
	// must still reject it (every described block consumes an entry).
	binary.LittleEndian.PutUint32(enc[32:], 2)
	sealSummary(enc)
	if _, ok := decodeSummary(enc, 10); ok {
		t.Fatal("summary with NBlocks > nEntries must not decode")
	}
}

// TestTornPayloadRecovery simulates the crash the payload CRC exists for:
// the summary block of the last partial segment is intact, but one of the
// blocks it describes never hit the media. Roll-forward must treat the whole
// partial as end-of-log rather than applying the summary against garbage.
func TestTornPayloadRecovery(t *testing.T) {
	fs, dev, clk := newFS(t)
	writeFile(t, fs, "/safe", pattern(8192, 1))
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	tornAddr := fs.segBase(fs.curSeg) + fs.curOff
	writeFile(t, fs, "/torn", pattern(4096, 2))
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	// The summary at tornAddr stays intact; its first described block is
	// replaced with garbage, as if the segment write tore after the summary.
	garbage := make([]byte, dev.BlockSize())
	for i := range garbage {
		garbage[i] = 0xad
	}
	if err := dev.Write(tornAddr+1, garbage); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(dev, clk, fs.opts)
	if err != nil {
		t.Fatalf("mount after torn payload: %v", err)
	}
	if got := readFile(t, fs2, "/safe"); !bytes_Equal(got, pattern(8192, 1)) {
		t.Fatal("data before the tear must survive")
	}
	if _, _, diff, err := fs2.AuditUsage(); err != nil || len(diff) != 0 {
		t.Fatalf("usage inconsistent after torn-payload recovery: %v %v", diff, err)
	}
}
