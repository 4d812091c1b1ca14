// Package wal implements the write-ahead log manager of the user-level
// transaction system (Figure 2 of the paper): physical before/after-image
// logging of byte ranges within pages, supporting both redo and undo
// recovery. Commit is append + force; amortizing the force over concurrent
// committers (group commit, [3]) is the caller's policy, not the log's.
//
// The log is a sequence of rotated segment files ({base}.{seq}.txnlog) on
// whichever file system the database lives on, each built from CRC-protected
// 4 KB blocks (see segment.go for the on-disk format). Each record carries
// its transaction, the page it touched, the byte range, and the before- and
// after-images; a commit is durable once a Force issued after its record was
// appended has returned. Checkpoints advance a low-water mark recorded in a
// small anchor file and delete the dead segments below it, so
// recovery reads the live tail, never total history.
package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"sort"

	"repro/internal/trace"
	"repro/internal/vfs"
)

// RecType discriminates log records.
type RecType uint8

const (
	// RecUpdate is a page update with before/after images.
	RecUpdate RecType = iota + 1
	// RecCommit marks a transaction committed.
	RecCommit
	// RecAbort marks a transaction rolled back.
	RecAbort
	// RecCheckpoint records that all dirty pages up to this point were
	// flushed and lists no active transactions (quiescent checkpoint). Its
	// File field carries the low-water segment sequence the checkpoint
	// established.
	RecCheckpoint
)

// Record is one log record.
type Record struct {
	LSN    LSN
	Type   RecType
	Txn    uint64
	File   uint64
	Block  int64
	Offset uint32 // byte offset within the page
	Before []byte
	After  []byte
}

const recFixed = 4 + 4 + 1 + 8 + 8 + 8 + 4 + 4 + 4 // len crc type txn file block off blen alen

// Errors.
var (
	ErrCorrupt = errors.New("wal: corrupt log record")
	ErrClosed  = errors.New("wal: log closed")
)

// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
// is zero: a segment seals once its payload stream reaches this size.
const DefaultSegmentBytes = 1 << 20

// Options configures the segmented log.
type Options struct {
	// SegmentBytes is the rotation threshold: once a segment's payload
	// stream would exceed it, the segment seals and a new one opens.
	// 0 means DefaultSegmentBytes.
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	return o
}

// Stats counts log activity.
type Stats struct {
	Records      int64 `json:"records"`
	BytesLogged  int64 `json:"bytes_logged"`  // record bytes appended (excludes block framing)
	Forces       int64 `json:"forces"`        // log forces (synchronous flushes)
	GroupCommits int64 `json:"group_commits"` // commits that waited on another committer's force

	Segments        int64 `json:"segments"`         // segment files created
	Rotations       int64 `json:"rotations"`        // active-segment seals due to the size threshold
	SegmentsSealed  int64 `json:"segments_sealed"`  // sealed segments fully flushed and closed
	SegmentsDeleted int64 `json:"segments_deleted"` // dead segments removed by checkpoint truncation
	Checkpoints     int64 `json:"checkpoints"`      // checkpoints anchored
}

// segWriter is the in-memory state of one not-yet-finalized segment: the
// whole payload stream (records back to the segment's first byte, so tail
// blocks can be recomposed on rewrite), the durable prefix, and the record
// start offsets that drive block headers.
type segWriter struct {
	seq     uint64
	f       vfs.File // nil until Create or the segment's first force creates the file
	stream  []byte   // payload stream: encoded records, contiguous
	durable int64    // stream prefix durable on disk
	starts  []int64  // record-start offsets into stream, ascending
	sealed  bool     // rotation happened; finalize at next force
}

func (w *segWriter) end() int64 { return int64(len(w.stream)) }

// grow extends the payload stream by n bytes and returns the new region.
// The stream only ever grows within a segment, so spare capacity is reused
// and the doubling slope is the only allocation.
//
//simlint:noalloc
func (w *segWriter) grow(n int) []byte {
	old := len(w.stream)
	if cap(w.stream)-old < n {
		//simlint:alloc(amortized doubling of the per-segment payload stream)
		w.stream = append(w.stream, make([]byte, n)...)
	} else {
		w.stream = w.stream[:old+n]
	}
	return w.stream[old : old+n]
}

// firstRecIn returns the payload offset of the first record starting in the
// block whose payload begins at stream offset lo, or noFirstRec. The stream's
// end counts as a start, since the next record begins there: the header a
// force writes when it starts the block stays true as later forces fill it.
//
//simlint:noalloc
func (w *segWriter) firstRecIn(lo int64) int {
	//simlint:alloc(non-escaping closure: sort.Search does not retain its predicate)
	i := sort.Search(len(w.starts), func(i int) bool { return w.starts[i] >= lo })
	s := w.end()
	if i < len(w.starts) {
		s = w.starts[i]
	}
	if s < lo+PayloadSize {
		return int(s - lo)
	}
	return noFirstRec
}

// contAt reports whether stream position lo falls mid-record (the block
// beginning there needs the continuation flag).
//
//simlint:noalloc
func (w *segWriter) contAt(lo int64) bool {
	if lo == 0 {
		return false
	}
	//simlint:alloc(non-escaping closure: sort.Search does not retain its predicate)
	i := sort.Search(len(w.starts), func(i int) bool { return w.starts[i] >= lo })
	return !(i < len(w.starts) && w.starts[i] == lo)
}

// Manager is a write-ahead log over rotated segments.
type Manager struct {
	fsys vfs.FileSystem
	base string
	opts Options

	// writers holds the unfinalized segments in ascending sequence order;
	// the last is the active segment new records append to. Everything
	// before it is sealed and drains (in order — a sealed segment is fully
	// durable before the next segment's file even exists) at Force.
	writers  []*segWriter
	lowWater uint64 // lowest live segment sequence
	ckptLSN  LSN    // last anchored checkpoint, 0 = none
	anchorF  vfs.File
	closed   bool

	blockBuf []byte // reusable block-composition scratch for Force

	stats    Stats
	lastScan ScanStats
	tracer   *trace.Tracer // nil = tracing off
}

// SetTracer attaches a tracer; log forces then emit wal.force spans, commit
// appends emit wal.commit instants, and rotations and truncations emit
// instants. A nil tracer costs nothing.
func (m *Manager) SetTracer(tr *trace.Tracer) { m.tracer = tr }

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats { return m.stats }

// LastScanStats reports the cost of the most recent recovery scan.
func (m *Manager) LastScanStats() ScanStats { return m.lastScan }

// active returns the segment new records append to.
func (m *Manager) active() *segWriter { return m.writers[len(m.writers)-1] }

// End returns the logical end of the log (the LSN the next record gets).
func (m *Manager) End() LSN {
	w := m.active()
	return makeLSN(w.seq, w.end())
}

func recSize(r *Record) int { return recFixed + len(r.Before) + len(r.After) }

// encodeRecordInto encodes r into b, which must be exactly recSize(r) bytes.
// The CRC is computed with table-driven crc32.Update rather than a
// crc32.NewIEEE hash value, which would allocate on every record.
//
//simlint:noalloc
func encodeRecordInto(b []byte, r *Record) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], uint32(len(b)))
	b[8] = byte(r.Type)
	le.PutUint64(b[9:], r.Txn)
	le.PutUint64(b[17:], r.File)
	le.PutUint64(b[25:], uint64(r.Block))
	le.PutUint32(b[33:], r.Offset)
	le.PutUint32(b[37:], uint32(len(r.Before)))
	le.PutUint32(b[41:], uint32(len(r.After)))
	copy(b[recFixed:], r.Before)
	copy(b[recFixed+len(r.Before):], r.After)
	crc := crc32.Update(0, crc32.IEEETable, b[0:4])
	crc = crc32.Update(crc, crc32.IEEETable, b[8:])
	le.PutUint32(b[4:], crc)
}

func decodeRecord(b []byte) (Record, int, error) {
	if len(b) < recFixed {
		return Record{}, 0, ErrCorrupt
	}
	le := binary.LittleEndian
	size := int(le.Uint32(b[0:]))
	if size < recFixed || size > len(b) {
		return Record{}, 0, ErrCorrupt
	}
	crc := crc32.Update(0, crc32.IEEETable, b[0:4])
	crc = crc32.Update(crc, crc32.IEEETable, b[8:size])
	if le.Uint32(b[4:]) != crc {
		return Record{}, 0, ErrCorrupt
	}
	var r Record
	r.Type = RecType(b[8])
	if r.Type < RecUpdate || r.Type > RecCheckpoint {
		// A CRC-valid record of a type no writer produces is damage, not
		// data: the scan ends here as at a torn record.
		return Record{}, 0, ErrCorrupt
	}
	r.Txn = le.Uint64(b[9:])
	r.File = le.Uint64(b[17:])
	r.Block = int64(le.Uint64(b[25:]))
	r.Offset = le.Uint32(b[33:])
	blen := int(le.Uint32(b[37:]))
	alen := int(le.Uint32(b[41:]))
	if recFixed+blen+alen != size {
		return Record{}, 0, ErrCorrupt
	}
	r.Before = append([]byte(nil), b[recFixed:recFixed+blen]...)
	r.After = append([]byte(nil), b[recFixed+blen:size]...)
	return r, size, nil
}

// append adds a record to the active segment's in-memory stream, encoding it
// in place (no per-record buffer), rotating first if the record would push
// the stream past the segment threshold, and returns its LSN. Pure memory —
// no I/O happens until Force.
//
//simlint:noalloc
func (m *Manager) append(r *Record) LSN {
	size := recSize(r)
	w := m.active()
	if w.end() > 0 && w.end()+int64(size) > m.opts.SegmentBytes {
		w.sealed = true
		m.stats.Rotations++
		m.tracer.Instant("wal", "wal.rotate", trace.AU("seq", w.seq+1))
		//simlint:alloc(cold rotation slope: one writer per SegmentBytes of log)
		w = &segWriter{seq: w.seq + 1}
		//simlint:alloc(cold rotation slope: writers list grows once per rotation)
		m.writers = append(m.writers, w)
	}
	lsn := makeLSN(w.seq, w.end())
	r.LSN = lsn
	//simlint:alloc(amortized growth of the per-segment record-start index)
	w.starts = append(w.starts, w.end())
	encodeRecordInto(w.grow(size), r)
	m.stats.Records++
	m.stats.BytesLogged += int64(size)
	return lsn
}

// LogUpdate appends an update record (before writing the page to disk: the
// WAL protocol requires the log to be forced before the page, which the
// buffer manager enforces by flushing the log on page write-back). The
// before/after images are encoded into the segment stream before LogUpdate
// returns, so the caller's slices are not retained and need no copy.
//
//simlint:noalloc
func (m *Manager) LogUpdate(txn, file uint64, block int64, offset uint32, before, after []byte) (LSN, error) {
	if m.closed {
		return 0, ErrClosed
	}
	r := Record{Type: RecUpdate, Txn: txn, File: file, Block: block, Offset: offset,
		Before: before, After: after}
	return m.append(&r), nil
}

// AppendCommit appends a commit record without forcing the log. The
// transaction is durable — and may be acknowledged — only once a later Force
// has returned: the environment owns the group-commit policy, holding
// concurrent committers until one Force covers the whole batch (§4.4), and
// the log manager itself never reports a commit it has not forced. A
// rotation triggered mid-batch is safe: the sealed segment simply drains
// ahead of the active one inside the batch's eventual Force.
//
//simlint:noalloc
func (m *Manager) AppendCommit(txn uint64) (LSN, error) {
	if m.closed {
		return 0, ErrClosed
	}
	//simlint:alloc(non-escaping record: append encodes it and drops the pointer)
	lsn := m.append(&Record{Type: RecCommit, Txn: txn})
	m.tracer.Instant("wal", "wal.commit", trace.AU("txn", txn), trace.AI("lsn", int64(lsn)))
	return lsn, nil
}

// NoteAbsorbed counts a commit that waited on another committer's Force
// instead of forcing the log itself.
func (m *Manager) NoteAbsorbed() {
	m.stats.GroupCommits++
}

// LogAbort appends an abort record (no force needed: undo was already
// applied from in-memory state, and the abort record only speeds recovery).
func (m *Manager) LogAbort(txn uint64) (LSN, error) {
	if m.closed {
		return 0, ErrClosed
	}
	return m.append(&Record{Type: RecAbort, Txn: txn}), nil
}

// LogCheckpoint appends a quiescent-checkpoint record, forces the log,
// anchors the checkpoint (LSN + low-water segment) in the anchor file, and
// truncates the now-dead segments below the low-water mark. The ordering is
// crash-safe at every step: until the anchor write is durable, recovery uses
// the previous checkpoint (whose segments still exist); after it, the dead
// segments are unreferenced and deleting them is idempotent (Open finishes
// an interrupted truncation).
func (m *Manager) LogCheckpoint() (LSN, error) {
	if m.closed {
		return 0, ErrClosed
	}
	r := Record{Type: RecCheckpoint}
	// The record lands in whatever segment is active after a possible
	// rotation; that segment becomes the new low-water mark. Stamp it into
	// the record for offline inspection (the anchor is authoritative).
	// Mirrors append's rotation condition; recSize is File-independent.
	w := m.active()
	r.File = w.seq
	if w.end() > 0 && w.end()+int64(recSize(&r)) > m.opts.SegmentBytes {
		r.File = w.seq + 1
	}
	lsn := m.append(&r)
	if err := m.Force(); err != nil {
		return lsn, err
	}
	newLow := lsn.Segment()
	if err := m.writeAnchor(anchor{ckptLSN: lsn, lowWater: newLow}); err != nil {
		return lsn, err
	}
	m.ckptLSN = lsn
	if err := m.truncateBelow(newLow); err != nil {
		return lsn, err
	}
	m.stats.Checkpoints++
	return lsn, nil
}

// writeAnchor atomically replaces the checkpoint anchor (a single sub-block
// write, atomic on both file systems).
func (m *Manager) writeAnchor(a anchor) error {
	if _, err := m.anchorF.WriteAt(encodeAnchor(a), 0); err != nil {
		return err
	}
	return m.anchorF.Sync()
}

// truncateBelow deletes every segment with sequence below newLow. Deletion durability is not required: if the
// crash eats a removal, Open finds the stale segment below the anchored
// low-water mark and deletes it again. The full-FS sync after the removals
// IS required, though — an LFS-style host queues each unlink's deletion
// record for its next flush, whichever file triggers it, while the updated
// directory block stays dirty in memory. Without the barrier, the next
// commit force (a log-file-only sync) would persist the inode deletions
// alone, and a crash there recovers directory entries pointing at dead
// inodes. The sync flushes the deletions and the directory update as one
// atomic batch.
func (m *Manager) truncateBelow(newLow uint64) error {
	removed := false
	for seq := m.lowWater; seq < newLow; seq++ {
		if err := removeIfExists(m.fsys, segName(m.base, seq)); err != nil {
			return err
		}
		removed = true
		m.stats.SegmentsDeleted++
		m.tracer.Instant("wal", "wal.truncate", trace.AU("seq", seq))
	}
	m.lowWater = newLow
	if removed {
		return m.fsys.Sync()
	}
	return nil
}

func removeIfExists(fsys vfs.FileSystem, path string) error {
	err := fsys.Remove(path)
	if errors.Is(err, vfs.ErrNotExist) {
		return nil
	}
	return err
}

// DurableThrough reports whether the log is durable up to end, a position End
// returned: every record appended before it has reached the segment files. A
// buffer manager asks it before writing a page back (the WAL rule per page):
// a page whose last record lies before the durable end needs no force.
//
//simlint:noalloc
func (m *Manager) DurableThrough(end LSN) bool {
	seq := end.Segment()
	for _, w := range m.writers {
		if w.seq == seq {
			return end.Offset() <= w.durable
		}
	}
	// Segments below the first unfinalized one were forced and closed.
	return seq < m.writers[0].seq
}

// dirty reports whether Force has anything to do.
func (m *Manager) dirty() bool {
	for _, w := range m.writers {
		if w.sealed || w.durable < w.end() {
			return true
		}
	}
	return false
}

// Force flushes all buffered records to the segment files and syncs them —
// the log force at the heart of WAL. Segments drain strictly in sequence
// order: a sealed segment is fully durable (data, close) before the
// next segment's file is created, so a crash can tear at most the last
// segment on disk.
//
//simlint:noalloc
func (m *Manager) Force() error {
	if m.closed {
		return ErrClosed
	}
	if !m.dirty() {
		return nil
	}
	span := m.tracer.Begin("wal", "wal.force")
	var bytes int64
	for {
		w := m.writers[0]
		n, err := m.flushWriter(w)
		if err != nil {
			return err
		}
		bytes += n
		if !w.sealed {
			break
		}
		if err := m.finalizeWriter(w); err != nil {
			return err
		}
		m.writers = m.writers[1:]
	}
	m.stats.Forces++
	span.End(trace.AI("bytes", bytes))
	return nil
}

// flushWriter makes w's whole stream durable: composes the dirty block
// range (the previously-partial tail block, its header and durable records
// unchanged, and the blocks after it), writes it in one contiguous I/O, and
// syncs. Returns the count of newly durable stream bytes.
//
//simlint:noalloc
func (m *Manager) flushWriter(w *segWriter) (int64, error) {
	end := w.end()
	if w.durable >= end {
		return 0, nil
	}
	if w.f == nil {
		if err := m.createSegment(w); err != nil {
			return 0, err
		}
	}
	b0 := w.durable / PayloadSize
	b1 := (end - 1) / PayloadSize
	need := int((b1 - b0 + 1) * BlockSize)
	if cap(m.blockBuf) < need {
		//simlint:alloc(reusable block scratch grows to the largest force seen)
		m.blockBuf = make([]byte, need)
	}
	buf := m.blockBuf[:need]
	for b := b0; b <= b1; b++ {
		lo := b * PayloadSize
		hi := lo + PayloadSize
		if hi > end {
			hi = end
		}
		dst := buf[(b-b0)*BlockSize : (b-b0+1)*BlockSize]
		encodeBlock(dst, w.stream[lo:hi], w.firstRecIn(lo), w.contAt(lo))
	}
	//simlint:alloc(simulated data I/O below the log hot path, not the compose loop)
	if _, err := w.f.WriteAt(buf, blockFileOff(b0)); err != nil {
		return 0, err
	}
	//simlint:alloc(simulated sync below the log hot path)
	if err := w.f.Sync(); err != nil {
		return 0, err
	}
	written := end - w.durable
	w.durable = end
	return written, nil
}

// createSegment creates w's segment file at its full length (segFileSize),
// making its directory entry and block map durable before any data is
// acknowledged. A production log preallocates its segments the same way: the
// forces that fill the segment then overwrite blocks the file already maps, so
// none of them changes the file's size or block map (DESIGN.md §8, "What Sync
// promises"). A stream that outgrows the length — one record larger than
// SegmentBytes — extends the file like any write.
//
//simlint:alloc(cold per-segment file creation: runs once per SegmentBytes of log)
func (m *Manager) createSegment(w *segWriter) error {
	f, err := m.fsys.Create(segName(m.base, w.seq))
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(encodeSegHeader(w.seq), 0); err != nil {
		return err
	}
	if err := f.Truncate(segFileSize(m.opts.SegmentBytes)); err != nil {
		return err
	}
	// A full file-system sync, not just an fsync of the file: the segment's
	// directory entry must be durable too, or a crash leaves acknowledged
	// log data unreachable by path.
	if err := m.fsys.Sync(); err != nil {
		return err
	}
	w.f = f
	m.stats.Segments++
	return nil
}

// finalizeWriter completes a sealed, fully-flushed segment: it closes the
// data file, whose last force already made every byte durable.
//
//simlint:alloc(cold per-segment finalize: runs once per rotation)
func (m *Manager) finalizeWriter(w *segWriter) error {
	if w.f != nil {
		if err := w.f.Close(); err != nil {
			return err
		}
	}
	m.stats.SegmentsSealed++
	return nil
}

// Close flushes and closes the log files.
func (m *Manager) Close() error {
	if m.closed {
		return nil
	}
	if err := m.Force(); err != nil {
		return err
	}
	m.closed = true
	for _, w := range m.writers {
		if w.f != nil {
			if err := w.f.Close(); err != nil {
				return err
			}
		}
	}
	return m.anchorF.Close()
}
