package wal

import (
	"errors"
	"sort"

	"repro/internal/frame"
	"repro/internal/vfs"
)

// ScanStats measures the cost of one recovery scan: how much of the log had
// to be read to bring the database to a consistent state. Bounded recovery
// means these numbers track the tail since the last checkpoint, not total
// log history.
type ScanStats struct {
	StartLSN LSN   `json:"start_lsn"`
	Segments int64 `json:"segments"`
	Blocks   int64 `json:"blocks"`
	Records  int64 `json:"records"`
	Bytes    int64 `json:"bytes"` // payload bytes of the records returned
}

// Create initializes a fresh segmented log rooted at base: it writes the
// checkpoint anchor ({base}.ckpt) and creates the first segment at full
// length, so that the zero-fill is set-up work and not part of the first
// commit's force.
func Create(fsys vfs.FileSystem, base string, opts Options) (*Manager, error) {
	opts = opts.withDefaults()
	af, err := fsys.Create(anchorName(base))
	if err != nil {
		return nil, err
	}
	if _, err := af.WriteAt(encodeAnchor(anchor{ckptLSN: 0, lowWater: 1}), 0); err != nil {
		return nil, err
	}
	m := &Manager{
		fsys: fsys, base: base, opts: opts, anchorF: af,
		lowWater: 1,
		writers:  []*segWriter{{seq: 1}},
	}
	// createSegment's full file-system sync also makes the anchor's directory
	// entry durable; without it a crash leaves the log undiscoverable.
	if err := m.createSegment(m.active()); err != nil {
		return nil, err
	}
	return m, nil
}

// Exists reports whether a log rooted at base exists (its anchor file does).
func Exists(fsys vfs.FileSystem, base string) bool {
	_, err := fsys.Stat(anchorName(base))
	return err == nil
}

// Open opens an existing segmented log for recovery and further appending.
// The open itself is bounded: it reads the anchor, lists the log directory,
// finishes any truncation a crash interrupted, and loads only the last live
// segment (whose torn tail, if any, it discards physically). Everything
// older is touched again only if a recovery scan needs it.
func Open(fsys vfs.FileSystem, base string, opts Options) (*Manager, error) {
	opts = opts.withDefaults()
	af, err := fsys.Open(anchorName(base))
	if err != nil {
		return nil, err
	}
	raw := make([]byte, anchorSize)
	n, err := af.ReadAt(raw, 0)
	if err != nil {
		return nil, err
	}
	a, anchorOK := decodeAnchor(raw[:n])

	segs, err := discoverSegments(fsys, base)
	if err != nil {
		return nil, err
	}
	if !anchorOK {
		// Unreadable anchor (it is written atomically, so this means
		// external damage): fall back to scanning everything present.
		a = anchor{ckptLSN: 0, lowWater: 1}
		if len(segs) > 0 {
			a.lowWater = segs[0]
		}
	}

	m := &Manager{
		fsys: fsys, base: base, opts: opts, anchorF: af,
		lowWater: a.lowWater, ckptLSN: a.ckptLSN,
	}

	// Finish any interrupted truncation: segments below the anchored
	// low-water mark are dead.
	var live []uint64
	removed := false
	for _, seq := range segs {
		if seq >= a.lowWater {
			live = append(live, seq)
			continue
		}
		if err := removeIfExists(fsys, segName(base, seq)); err != nil {
			return nil, err
		}
		m.stats.SegmentsDeleted++
		removed = true
	}

	// Attach the highest live segment as the active writer. A segment whose
	// header never became durable holds no acknowledged data (the header is
	// synced before any block write), so it is deleted and the previous
	// segment becomes active again.
	for len(live) > 0 {
		seq := live[len(live)-1]
		w, ok, err := m.openSegment(seq)
		if err != nil {
			return nil, err
		}
		if !ok {
			if err := removeIfExists(fsys, segName(base, seq)); err != nil {
				return nil, err
			}
			live = live[:len(live)-1]
			removed = true
			continue
		}
		m.writers = []*segWriter{w}
		break
	}
	if m.writers == nil {
		m.writers = []*segWriter{{seq: a.lowWater}}
	}
	if removed {
		// Same barrier truncateBelow needs: flush the unlinks' deletion
		// records together with the directory update, so a later log-only
		// sync cannot persist one without the other (see truncateBelow).
		if err := fsys.Sync(); err != nil {
			return nil, err
		}
	}

	// Sanity: a checkpoint LSN must point into the live log. The anchor is
	// written only after the checkpoint record is durable, so this fires
	// only on external damage; degrade to scanning from the low-water mark.
	if m.ckptLSN != 0 {
		w := m.active()
		seg := m.ckptLSN.Segment()
		if seg < m.lowWater || seg > w.seq ||
			(seg == w.seq && m.ckptLSN.Offset() > 0 && m.ckptLSN.Offset() >= w.durable) {
			m.ckptLSN = 0
		}
	}
	return m, nil
}

// openSegment loads segment seq as the active writer: validates the header,
// reassembles the durable payload stream, and clears a torn tail in place
// (zeroing the tail block's bytes past the last whole record and every block
// after it that holds anything), keeping the file's preallocated length.
// ok=false means the header itself is unreadable (the segment holds no
// durable data).
func (m *Manager) openSegment(seq uint64) (*segWriter, bool, error) {
	f, err := m.fsys.Open(segName(m.base, seq))
	if err != nil {
		return nil, false, err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, false, err
	}
	raw := make([]byte, size)
	if n, err := f.ReadAt(raw, 0); err != nil {
		f.Close()
		return nil, false, err
	} else {
		raw = raw[:n]
	}
	if got, ok := decodeSegHeader(raw); !ok || got != seq {
		f.Close()
		return nil, false, nil
	}

	stream, _, _ := assembleStream(raw)
	validEnd, starts := parseStream(stream)

	w := &segWriter{seq: seq, f: f, stream: stream[:validEnd:validEnd], durable: validEnd, starts: starts}

	// Clear the torn tail in place: those bytes were never acknowledged
	// durable, and a record left behind past the stream's end would be read
	// as its next once later forces write up to it. The whole file was read,
	// so a clear that a crash tore is found and finished by the next open.
	keep := (validEnd + PayloadSize - 1) / PayloadSize // data blocks the stream occupies
	last := int64(-1)                                  // last data block holding anything
	for b := int64(len(raw))/BlockSize - 2; b >= keep; b-- {
		if off := blockFileOff(b); !frame.IsZero(raw[off : off+BlockSize]) {
			last = b
			break
		}
	}
	lo := keep
	if !frame.IsZero(stream[validEnd : keep*PayloadSize]) {
		lo = keep - 1 // the tail block, re-encoded without its torn bytes
	}
	if lo < keep || last >= keep {
		clearBuf := make([]byte, (max(last, lo)-lo+1)*BlockSize)
		if lo < keep {
			tail := lo * PayloadSize
			encodeBlock(clearBuf[:BlockSize], w.stream[tail:validEnd], w.firstRecIn(tail), w.contAt(tail))
		}
		if _, err := f.WriteAt(clearBuf, blockFileOff(lo)); err != nil {
			f.Close()
			return nil, false, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, false, err
		}
	}
	return w, true, nil
}

// assembleStream concatenates the payloads of the data blocks of a raw
// segment image (header block included) up to the first whose header is
// invalid. It returns the payload stream, zeros past the last record
// included, the number of blocks read, and whether that invalid block holds
// something (torn); an unwritten block ends the stream cleanly.
func assembleStream(raw []byte) (stream []byte, blocks int64, torn bool) {
	for off := BlockSize; off+BlockSize <= len(raw); off += BlockSize {
		if _, ok := decodeBlock(raw[off : off+BlockSize]); !ok {
			return stream, blocks, !frame.IsZero(raw[off : off+BlockSize])
		}
		blocks++
		stream = append(stream, raw[off+blockHdrSize:off+BlockSize]...)
	}
	return stream, blocks, false
}

// parseStream walks a payload stream record by record, returning the end of
// the last record before the first that does not decode, and every
// record-start offset before it.
func parseStream(stream []byte) (validEnd int64, starts []int64) {
	off := 0
	for off < len(stream) {
		_, sz, err := decodeRecord(stream[off:])
		if err != nil {
			break
		}
		starts = append(starts, int64(off))
		off += sz
	}
	return int64(off), starts
}

// Scan reads every intact record from the last checkpoint onward (from the
// low-water segment's start if no checkpoint is anchored). A torn or
// corrupt tail terminates the scan without error (those records were never
// acknowledged durable).
func (m *Manager) Scan() ([]Record, error) {
	recs, stats, err := m.scanFrom(m.ckptLSN)
	if err != nil {
		return nil, err
	}
	m.lastScan = stats
	return recs, nil
}

// scanFrom reads the durable records with LSN >= from, in order. from == 0
// means the start of the low-water segment; otherwise from is a record's own
// LSN (the anchored checkpoint's). Sealed segments are read from disk — the
// first starting at the block that holds from — and the active segment is
// served from the in-memory durable stream.
func (m *Manager) scanFrom(from LSN) ([]Record, ScanStats, error) {
	if from == 0 {
		from = makeLSN(m.lowWater, 0)
	}
	stats := ScanStats{StartLSN: from}
	act := m.active()
	var recs []Record
	for seq := from.Segment(); seq <= act.seq; seq++ {
		if seq == act.seq {
			// Active segment: decode straight from the durable stream.
			stats.Segments++
			start := int64(0)
			if seq == from.Segment() {
				start = from.Offset()
			}
			i := sort.Search(len(act.starts), func(i int) bool { return act.starts[i] >= start })
			for ; i < len(act.starts) && act.starts[i] < act.durable; i++ {
				off := act.starts[i]
				r, sz, err := decodeRecord(act.stream[off:act.durable])
				if err != nil || off+int64(sz) > act.durable {
					break
				}
				r.LSN = makeLSN(seq, off)
				recs = append(recs, r)
				stats.Records++
				stats.Bytes += int64(sz)
			}
			if act.durable > start {
				stats.Blocks += (act.durable+PayloadSize-1)/PayloadSize - start/PayloadSize
			}
			break
		}
		segRecs, segStats, torn, err := m.scanSealed(seq, from)
		if err != nil {
			return nil, stats, err
		}
		recs = append(recs, segRecs...)
		stats.Segments += segStats.Segments
		stats.Blocks += segStats.Blocks
		stats.Records += segStats.Records
		stats.Bytes += segStats.Bytes
		if torn {
			// Data past a torn point was never acknowledged (segments drain
			// strictly in order), so the scan ends here.
			break
		}
	}
	return recs, stats, nil
}

// scanSealed reads one sealed segment from disk. In the segment containing
// `from` it seeks by arithmetic: every block but a segment's last carries
// exactly PayloadSize stream bytes, so from's record starts at byte
// Offset%PayloadSize of block Offset/PayloadSize, and no earlier block is
// read.
func (m *Manager) scanSealed(seq uint64, from LSN) (recs []Record, stats ScanStats, torn bool, err error) {
	f, err := m.fsys.Open(segName(m.base, seq))
	if err != nil {
		if errors.Is(err, vfs.ErrNotExist) {
			// A live segment file that is missing means nothing was ever
			// forced to it (a rotation creates the next file at its first
			// force); skip, not torn.
			return nil, stats, false, nil
		}
		return nil, stats, false, err
	}
	defer f.Close()
	stats.Segments++

	size, err := f.Size()
	if err != nil {
		return nil, stats, false, err
	}

	start := int64(0) // stream offset of the first record to return
	if seq == from.Segment() {
		start = from.Offset()
	}
	startBlock := start / PayloadSize
	fileOff := blockFileOff(startBlock)
	if fileOff > size {
		return nil, stats, false, nil
	}
	raw := make([]byte, size-fileOff+BlockSize)
	n, err := f.ReadAt(raw, fileOff-BlockSize) // include header block for assembleStream's framing
	if err != nil {
		return nil, stats, false, err
	}
	raw = raw[:n]
	if startBlock == 0 {
		if got, ok := decodeSegHeader(raw); !ok || got != seq {
			return nil, stats, true, nil
		}
	}
	stream, blocks, torn := assembleStream(raw)
	stats.Blocks += blocks

	base := startBlock * PayloadSize // stream offset of stream[0]
	for off := start - base; off < int64(len(stream)); {
		r, sz, derr := decodeRecord(stream[off:])
		if derr != nil {
			torn = torn || !frame.IsZero(stream[off:]) // not the zeros past the last record
			break
		}
		r.LSN = makeLSN(seq, base+off)
		recs = append(recs, r)
		stats.Records++
		stats.Bytes += int64(sz)
		off += int64(sz)
	}
	return recs, stats, torn, nil
}

// ReplayRecords replays the records a Scan returned through apply, which
// writes a byte range into a database page. It is recovery's one entry
// point. Transactions fall into three classes:
//
//   - committed (commit record present): their updates are redone in log
//     order;
//   - explicitly aborted (abort record present): they are ALSO redone in
//     log order — the transaction layer logs compensation updates
//     (after-image = restored before-image) before the abort record, so
//     replaying the whole sequence reproduces the rollback without ever
//     moving backwards in history. This is how compensation log records
//     keep an abort from clobbering later committed writes at recovery.
//   - in-flight losers (neither record): their before-images are applied
//     in reverse order. Strict two-phase locking guarantees no later
//     transaction wrote the same bytes (the loser still held its write
//     locks at the crash), so reverse undo is safe.
func ReplayRecords(recs []Record, apply func(file uint64, block int64, offset uint32, data []byte) error) (winners, losers int, err error) {
	committed := map[uint64]bool{}
	aborted := map[uint64]bool{}
	seen := map[uint64]bool{}
	var seenOrder []uint64 // first-appearance order; no map iteration needed
	for _, r := range recs {
		switch r.Type {
		case RecCommit:
			committed[r.Txn] = true
		case RecAbort:
			aborted[r.Txn] = true
		case RecUpdate:
			if !seen[r.Txn] {
				seen[r.Txn] = true
				seenOrder = append(seenOrder, r.Txn)
			}
		}
	}
	// Redo committed and aborted-with-compensation transactions forward.
	for _, r := range recs {
		if r.Type == RecUpdate && (committed[r.Txn] || aborted[r.Txn]) {
			if err := apply(r.File, r.Block, r.Offset, r.After); err != nil {
				return 0, 0, err
			}
		}
	}
	// Undo in-flight losers backward.
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		if r.Type == RecUpdate && !committed[r.Txn] && !aborted[r.Txn] {
			if err := apply(r.File, r.Block, r.Offset, r.Before); err != nil {
				return 0, 0, err
			}
		}
	}
	w, l := 0, 0
	for _, txn := range seenOrder {
		if committed[txn] {
			w++
		} else {
			l++
		}
	}
	return w, l, nil
}
