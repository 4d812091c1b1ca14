package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"testing"

	"repro/internal/disk"
	"repro/internal/vfs"
)

// seedLog builds a log whose first segment sealed with records spanning
// blocks and a checkpoint mid-block, and returns that segment's image and
// the anchor's.
func seedLog(tb testing.TB) (seg, anchor []byte) {
	tb.Helper()
	fs := newMemFS()
	m, err := Create(fs, "/log", Options{SegmentBytes: 4 * PayloadSize})
	if err != nil {
		tb.Fatal(err)
	}
	img := make([]byte, 700) // a 1,445-byte update record: most span a block boundary
	for txn := uint64(1); m.active().seq == 1; txn++ {
		if _, err := m.LogUpdate(txn, 1, int64(txn), 0, img, img); err != nil {
			tb.Fatal(err)
		}
		if err := logCommit(m, txn); err != nil {
			tb.Fatal(err)
		}
		if txn == 5 {
			if _, err := m.LogCheckpoint(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := m.Close(); err != nil {
		tb.Fatal(err)
	}
	return fs.files[segName("/log", 1)].data, fs.files[anchorName("/log")].data
}

// tornTail builds a log whose tail block holds records a force made durable,
// then appends more to that block, from its third sector to its last, and
// forces again: the range a crash can tear at a sector boundary. It returns
// segment 1's image before and after the append, the anchor's, and the file
// offset of the tail block.
func tornTail(tb testing.TB) (before, after, anchor []byte, tail int64) {
	tb.Helper()
	fs := newMemFS()
	m, err := Create(fs, "/log", Options{})
	if err != nil {
		tb.Fatal(err)
	}
	img := make([]byte, 100)
	txn := uint64(1)
	add := func() {
		for i := range img {
			img[i] = byte(txn + uint64(i))
		}
		if _, err := m.LogUpdate(txn, 1, int64(txn), 0, img, img); err != nil {
			tb.Fatal(err)
		}
		if _, err := m.AppendCommit(txn); err != nil {
			tb.Fatal(err)
		}
		txn++
	}
	for range 4 {
		add()
	}
	if err := m.Force(); err != nil {
		tb.Fatal(err)
	}
	seg := fs.files[segName("/log", 1)]
	before = append([]byte(nil), seg.data...)
	for m.End().Offset() < PayloadSize-400 {
		add()
	}
	if end := m.End().Offset(); end > PayloadSize || end+blockHdrSize <= BlockSize-disk.SectorSize {
		tb.Fatalf("the second force ends at stream byte %d: not in the tail block's last sector", end)
	}
	if err := m.Force(); err != nil {
		tb.Fatal(err)
	}
	after = append([]byte(nil), seg.data...)
	tail = blockFileOff(0)
	if lo := tail + 2*disk.SectorSize; !bytes.Equal(before[:lo], after[:lo]) || bytes.Equal(before[lo:lo+disk.SectorSize], after[lo:lo+disk.SectorSize]) {
		tb.Fatal("the second force's bytes do not start in the tail block's third sector")
	}
	return before, after, fs.files[anchorName("/log")].data, tail
}

// tornAt is the image of a tail-block append torn after the block's first k
// sectors: after's bytes in those, before's in the rest.
func tornAt(before, after []byte, tail int64, k int) []byte {
	mix := append([]byte(nil), after...)
	copy(mix[tail+int64(k*disk.SectorSize):tail+BlockSize], before[tail+int64(k*disk.SectorSize):])
	return mix
}

// installLog lays a log out on a fresh in-memory file system: the anchor
// bytes, seg as segment 1 and, unless seg is to be the active segment, an
// empty segment 2 after it, so segment 1 is sealed and read from disk.
func installLog(anchor, seg []byte, active bool) *memFS {
	fs := newMemFS()
	put := func(path string, data []byte) {
		fs.next++
		fs.files[path] = &memFile{id: vfs.FileID(fs.next), data: append([]byte(nil), data...)}
	}
	put(anchorName("/log"), anchor)
	put(segName("/log", 1), seg)
	if !active {
		put(segName("/log", 2), encodeSegHeader(2))
	}
	return fs
}

// TestAnchorBeyondLSNRangeIsDamage: an anchor whose CRC holds but whose
// low-water mark does not fit the 23 bits an LSN gives the segment used to
// be trusted. Open deleted every segment below it, and the scan from the
// low-water mark's LSN — which wraps, to segment 0 — walked segment numbers
// up to 2^40 looking for files. Such an anchor is damage, handled like a bad
// CRC: Open keeps every segment present and scans from the first.
func TestAnchorBeyondLSNRangeIsDamage(t *testing.T) {
	seg, _ := seedLog(t)
	for _, a := range []anchor{
		{lowWater: 1 << 40},
		{lowWater: maxSegment + 1},
		{ckptLSN: -1, lowWater: 1},
	} {
		m, err := Open(installLog(encodeAnchor(a), seg, false), "/log", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if m.lowWater != 1 || m.ckptLSN != 0 {
			t.Fatalf("anchor %+v: low-water %d, checkpoint %v; want 1 and none", a, m.lowWater, m.ckptLSN)
		}
		recs, err := m.Scan()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 || recs[0].LSN != makeLSN(1, 0) {
			t.Fatalf("anchor %+v: scan returned %d records; want segment 1 from its first", a, len(recs))
		}
	}
}

// FuzzOpenScan feeds the WAL's four on-disk decoders — segment header,
// block, record and anchor — whatever bytes a damaged medium might return:
// arbitrary bytes are installed as a segment image (sealed, or with active
// set the segment Open attaches for appending) beside an arbitrary anchor,
// then the log is dumped, opened and scanned. With stamp set the anchor's
// CRC is recomputed first, so mutations reach what the anchor says and not
// only its checksum. Nothing may panic or hang, and every record Scan
// returns must be of a known type and exactly the bytes its LSN names in the
// image: stream byte
// o of a segment lives at file offset
// BlockSize*(1+o/PayloadSize) + blockHdrSize + o%PayloadSize.
//
// A large segment image makes each new input slow to minimize; run it with
// a short -fuzzminimizetime.
func FuzzOpenScan(f *testing.F) {
	seg, anc := seedLog(f)
	f.Add(seg, anc, false, false)
	f.Add(seg, anc, true, false)
	f.Add(seg[:len(seg)-BlockSize/2], anc, true, false) // torn tail block
	f.Add(seg, []byte{}, false, false)                  // unreadable anchor
	f.Add(seg, encodeAnchor(anchor{lowWater: 1 << 40}), false, true)
	before, after, tornAnc, tail := tornTail(f)
	for _, k := range []int{3, 6} { // the tail append torn inside its range
		f.Add(tornAt(before, after, tail, k), tornAnc, true, false)
	}
	f.Fuzz(func(t *testing.T, seg, anc []byte, active, stamp bool) {
		if stamp && len(anc) >= anchorSize {
			anc = append([]byte(nil), anc...)
			binary.LittleEndian.PutUint32(anc[24:], crc32.ChecksumIEEE(anc[:24]))
		}
		if err := Dump(io.Discard, installLog(anc, seg, active), "/log"); err != nil {
			t.Fatalf("dump: %v", err)
		}
		m, err := Open(installLog(anc, seg, active), "/log", Options{})
		if err != nil {
			return
		}
		recs, err := m.Scan()
		if err != nil {
			return
		}
		for _, r := range recs {
			if r.Type < RecUpdate || r.Type > RecCheckpoint {
				t.Fatalf("record at %v has type %d, which no writer produces", r.LSN, r.Type)
			}
			if r.LSN.Segment() != 1 {
				t.Fatalf("record at %v: only segment 1 holds records", r.LSN)
			}
			enc := make([]byte, recSize(&r))
			encodeRecordInto(enc, &r)
			for i, b := range enc {
				o := r.LSN.Offset() + int64(i)
				at := BlockSize*(1+o/PayloadSize) + blockHdrSize + o%PayloadSize
				if at >= int64(len(seg)) || seg[at] != b {
					t.Fatalf("record at %v (%d bytes) differs from the image at its byte %d", r.LSN, len(enc), i)
				}
			}
		}
	})
}
