package lfs

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/detsort"
	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/trace"
)

// checkpoint is the volatile state persisted to a checkpoint region: the
// imap, the segment usage table, and the log position. Two regions alternate
// so a crash during a checkpoint write leaves the previous one intact.
type checkpoint struct {
	CpSeq   uint64
	Seq     uint64
	NextIno Ino
	CurSeg  int64
	CurOff  int64
	NextSeg int64
	Imap    map[Ino]int64
	Segs    []segInfo
}

// Checkpoint record layout: a 12-byte header (magic, CRC over everything
// but itself, size), six uint64 log-position fields, then the imap count and
// its (ino, addr) pairs in ino order, then the segment count and one entry
// per segment: state byte, live count, seq stamp, and a reserved zero slot
// (version 2's data-age stamp).
const (
	cpHeaderSize    = 4 + 4 + 4 + 8*6
	cpImapEntrySize = 16
	cpSegEntrySize  = 1 + 8 + 8 + 8
)

func (cp *checkpoint) encode() []byte {
	size := cpHeaderSize + 8 + len(cp.Imap)*cpImapEntrySize + 8 + len(cp.Segs)*cpSegEntrySize
	b := make([]byte, size)
	le := binary.LittleEndian
	le.PutUint32(b[0:], cpMagic)
	// b[4:8] = crc, filled last
	le.PutUint32(b[8:], uint32(size))
	off := 12
	for _, v := range []uint64{cp.CpSeq, cp.Seq, uint64(cp.NextIno), uint64(cp.CurSeg), uint64(cp.CurOff), uint64(cp.NextSeg)} {
		le.PutUint64(b[off:], v)
		off += 8
	}
	le.PutUint64(b[off:], uint64(len(cp.Imap)))
	off += 8
	for _, ino := range detsort.Keys(cp.Imap) {
		le.PutUint64(b[off:], uint64(ino))
		le.PutUint64(b[off+8:], uint64(cp.Imap[ino]))
		off += cpImapEntrySize
	}
	le.PutUint64(b[off:], uint64(len(cp.Segs)))
	off += 8
	for _, s := range cp.Segs {
		b[off] = byte(s.State)
		le.PutUint64(b[off+1:], uint64(s.Live))
		le.PutUint64(b[off+9:], s.SeqStamp)
		off += cpSegEntrySize
	}
	crc := crc32.NewIEEE()
	crc.Write(b[0:4])
	crc.Write(b[8:])
	le.PutUint32(b[4:], crc.Sum32())
	return b
}

// decodeCheckpoint parses a checkpoint record. Whatever the region holds, it
// returns the checkpoint or ErrCorrupt: a count the record's bytes cannot
// hold, an unknown segment state, a non-zero reserved slot, an imap out of
// order or bytes past the last segment are damage even under a valid CRC,
// so what it accepts re-encodes to the same bytes.
func decodeCheckpoint(b []byte) (*checkpoint, error) {
	if len(b) < 12 {
		return nil, fmt.Errorf("%w: short checkpoint", ErrCorrupt)
	}
	le := binary.LittleEndian
	if le.Uint32(b[0:]) != cpMagic {
		return nil, fmt.Errorf("%w: checkpoint magic", ErrCorrupt)
	}
	size := int(le.Uint32(b[8:]))
	if size < cpHeaderSize+8+8 || size > len(b) {
		return nil, fmt.Errorf("%w: checkpoint size %d", ErrCorrupt, size)
	}
	b = b[:size]
	crc := crc32.NewIEEE()
	crc.Write(b[0:4])
	crc.Write(b[8:])
	if le.Uint32(b[4:]) != crc.Sum32() {
		return nil, fmt.Errorf("%w: checkpoint checksum", ErrCorrupt)
	}
	cp := &checkpoint{Imap: make(map[Ino]int64)}
	off := 12
	cp.CpSeq = le.Uint64(b[off:])
	cp.Seq = le.Uint64(b[off+8:])
	cp.NextIno = Ino(le.Uint64(b[off+16:]))
	cp.CurSeg = int64(le.Uint64(b[off+24:]))
	cp.CurOff = int64(le.Uint64(b[off+32:]))
	cp.NextSeg = int64(le.Uint64(b[off+40:]))
	off += 48
	nImap := le.Uint64(b[off:])
	off += 8
	if nImap > uint64(size-off-8)/cpImapEntrySize {
		return nil, fmt.Errorf("%w: checkpoint imap count %d", ErrCorrupt, nImap)
	}
	var prev Ino
	for i := range int(nImap) {
		ino := Ino(le.Uint64(b[off:]))
		if i > 0 && ino <= prev {
			return nil, fmt.Errorf("%w: checkpoint imap out of order at inode %d", ErrCorrupt, ino)
		}
		prev = ino
		cp.Imap[ino] = int64(le.Uint64(b[off+8:]))
		off += cpImapEntrySize
	}
	nSegs := le.Uint64(b[off:])
	off += 8
	if nSegs != uint64(size-off)/cpSegEntrySize || (size-off)%cpSegEntrySize != 0 {
		return nil, fmt.Errorf("%w: checkpoint segment count %d for %d bytes", ErrCorrupt, nSegs, size-off)
	}
	cp.Segs = make([]segInfo, nSegs)
	for i := range cp.Segs {
		s := &cp.Segs[i]
		s.State = segState(b[off])
		s.Live = int64(le.Uint64(b[off+1:]))
		s.SeqStamp = le.Uint64(b[off+9:])
		if s.State > segReserved || le.Uint64(b[off+17:]) != 0 {
			return nil, fmt.Errorf("%w: checkpoint segment %d entry", ErrCorrupt, i)
		}
		off += cpSegEntrySize
	}
	return cp, nil
}

// checkpointLocked flushes all dirty state and writes a checkpoint to the
// alternate region.
func (fs *FS) checkpointLocked() error {
	if err := fs.flushLocked(nil, false); err != nil {
		return err
	}
	return fs.writeCheckpointLocked()
}

// writeCheckpointLocked persists the current imap, segment usage table, and
// log position WITHOUT flushing dirty data buffers first. Deferred
// indirect-pointer state, however, MUST be written before the checkpoint:
// commit forces leave updated pointer blocks dirty in memory, recoverable
// only by replaying the commit summaries — and a checkpoint moves the
// roll-forward start past those summaries. A crash right after a flushless
// checkpoint would then resolve indirect-range blocks through the stale
// on-disk pointer blocks, silently reviving pre-commit data. For the same
// reason every block whose newest durable bytes are in summary patches only
// is logged whole first (logPatchedLocked). The cleaner
// uses this to advance the checkpoint boundary (and thereby unlock victim
// segments) without triggering a full data flush while segments are scarce.
func (fs *FS) writeCheckpointLocked() error {
	if fs.chainCont {
		// A flush batch is mid-chain (the cleaner can run between its
		// partials): the in-memory imap already reflects the batch's
		// written prefix, and checkpointing it would make that prefix
		// recoverable without the chain terminator — exactly the
		// half-committed state the chain flag exists to prevent. Defer;
		// flushLocked checkpoints after the batch completes.
		return nil
	}
	span := fs.tracer.Begin("lfs", "lfs.checkpoint")
	defer func() { span.End(trace.AU("seq", fs.seq)) }()
	if len(fs.patched) > 0 {
		if err := fs.writeBehindLocked("checkpoint", fs.logPatchedLocked); err != nil {
			return err
		}
	}
	var metaDirty []Ino
	for _, ino := range detsort.Keys(fs.inodes) {
		if fs.inodeMetaDirty(fs.inodes[ino]) {
			metaDirty = append(metaDirty, ino)
		}
	}
	for len(metaDirty) > 0 {
		n := min(len(metaDirty), maxFilesPerPartial)
		if err := fs.writePartialLocked(nil, metaDirty[:n], false, nil); err != nil {
			return err
		}
		metaDirty = metaDirty[n:]
	}
	cp := checkpoint{
		CpSeq:   fs.cpSeq + 1,
		Seq:     fs.seq,
		NextIno: fs.nextIno,
		CurSeg:  fs.curSeg,
		CurOff:  fs.curOff,
		NextSeg: fs.nextSeg,
		Imap:    fs.imap,
		Segs:    fs.segs,
	}
	enc := cp.encode()
	regionBytes := int(fs.sb.CPBlocks) * fs.blockSize
	if len(enc) > regionBytes {
		return fmt.Errorf("lfs: checkpoint (%d bytes) exceeds region (%d bytes)", len(enc), regionBytes)
	}
	region := int64(cp.CpSeq % 2)
	base := 1 + region*fs.sb.CPBlocks
	nblocks := (len(enc) + fs.blockSize - 1) / fs.blockSize
	blocks := make([][]byte, nblocks)
	for i := range blocks {
		blocks[i] = make([]byte, fs.blockSize)
		lo := i * fs.blockSize
		hi := lo + fs.blockSize
		if hi > len(enc) {
			hi = len(enc)
		}
		copy(blocks[i], enc[lo:hi])
	}
	if err := fs.dev.WriteRun(base, blocks); err != nil {
		return err
	}
	fs.cpSeq = cp.CpSeq
	fs.cpBound = fs.seq
	fs.stats.Checkpoints++
	return nil
}

// Mount loads an existing file system from dev: read the superblock, pick
// the newer valid checkpoint, roll the log forward through the summary-block
// chain, rebuild the segment usage table, and checkpoint the recovered
// state.
func Mount(dev *disk.Device, clock *sim.Clock, opts Options) (*FS, error) {
	opts.fill()
	bs := dev.BlockSize()
	buf := make([]byte, bs)
	if err := dev.Read(superBlockAddr, buf); err != nil {
		return nil, err
	}
	sb, err := decodeSuperblock(buf)
	if err != nil {
		return nil, err
	}
	if int(sb.BlockSize) != bs {
		return nil, fmt.Errorf("%w: block size mismatch", ErrCorrupt)
	}

	// Read both checkpoint regions; keep the newer valid one.
	var best *checkpoint
	for region := int64(0); region < 2; region++ {
		base := 1 + region*sb.CPBlocks
		raw := make([]byte, int(sb.CPBlocks)*bs)
		bufs := make([][]byte, sb.CPBlocks)
		for i := range bufs {
			bufs[i] = raw[i*bs : (i+1)*bs]
		}
		if err := dev.ReadRun(base, bufs); err != nil {
			return nil, err
		}
		cp, err := decodeCheckpoint(raw)
		if err != nil {
			continue
		}
		if best == nil || cp.CpSeq > best.CpSeq {
			best = cp
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: no valid checkpoint", ErrCorrupt)
	}

	fs := &FS{
		dev:       dev,
		clock:     clock,
		blockSize: bs,
		sb:        sb,
		opts:      opts,
		imap:      best.Imap,
		segs:      best.Segs,
		curSeg:    best.CurSeg,
		curOff:    best.CurOff,
		nextSeg:   best.NextSeg,
		seq:       best.Seq,
		cpSeq:     best.CpSeq,
		nextIno:   best.NextIno,
		inodes:    make(map[Ino]*inode),
		packRefs:  make(map[int64]int),
		sumCache:  make(map[int64][]summary),
	}
	if int64(len(fs.segs)) != sb.NumSegments {
		return nil, fmt.Errorf("%w: checkpoint segment table size", ErrCorrupt)
	}
	fs.attach()

	if err := fs.rollForwardLocked(); err != nil {
		return nil, err
	}
	if err := fs.rebuildUsageLocked(); err != nil {
		return nil, err
	}
	fs.cpBound = fs.seq
	// Persist the recovered state so the log tail can be reused safely.
	if err := fs.checkpointLocked(); err != nil {
		return nil, err
	}
	return fs, nil
}

// readPartialLocked reads and validates one partial segment at pos: the
// summary block, then the blocks it describes, whose CRC must match the
// summary's payload field. ok=false (without error) means pos does not hold
// an intact partial segment — a torn segment write, garbage, or stale data —
// which roll-forward treats as end-of-log: a summary only vouches for its
// payload, so a crashed multi-block write that happened to complete the
// summary block but not all described blocks must be discarded whole.
func (fs *FS) readPartialLocked(pos int64) (summary, [][]byte, bool, error) {
	buf := make([]byte, fs.blockSize)
	if err := fs.dev.Read(pos, buf); err != nil {
		return summary{}, nil, false, err
	}
	sum, ok := decodeSummary(buf, pos)
	if !ok {
		return summary{}, nil, false, nil
	}
	// The payload must lie within the summary's own segment (a partial
	// segment never crosses a segment boundary).
	if seg := fs.segOf(pos); seg < 0 || pos+int64(sum.NBlocks) >= fs.segBase(seg)+fs.sb.SegmentBlocks {
		return summary{}, nil, false, nil
	}
	payload := make([][]byte, sum.NBlocks)
	raw := make([]byte, sum.NBlocks*fs.blockSize)
	for i := range payload {
		payload[i] = raw[i*fs.blockSize : (i+1)*fs.blockSize]
	}
	if err := fs.dev.ReadRun(pos+1, payload); err != nil {
		return summary{}, nil, false, err
	}
	if payloadChecksum(payload) != sum.PayloadCRC {
		return summary{}, nil, false, nil
	}
	return sum, payload, true, nil
}

// rollForwardLocked follows the partial-segment chain from the checkpointed
// log position, applying inode-map updates and deletions from each summary
// whose sequence number matches the expected next value. The chain ends at
// the first position that does not hold the expected summary with an intact
// payload.
//
// Partials flagged sumFlagCont belong to a flush batch that continues in
// the next partial; such a batch is applied only once its terminating
// (unflagged) partial is read intact. If the log ends mid-batch, the whole
// batch is discarded and the recovered log position rewinds to the end of
// the last complete batch — a commit force's pages are all-or-nothing even
// when they span several partial segments.
func (fs *FS) rollForwardLocked() error {
	pos := fs.segBase(fs.curSeg) + fs.curOff
	curSeg, curOff := fs.curSeg, fs.curOff
	nextSeg := fs.nextSeg
	seq := fs.seq
	// pendingPtr records each data block's newest logged address and the
	// partial that logged it. Commit forces defer indirect-pointer blocks
	// and pointer-only inode packs, so the summaries are the authoritative
	// record of where data blocks went; the pointers are rebuilt after the
	// walk (last write wins).
	type ptrKey struct {
		ino Ino
		lbn int64
	}
	type loggedPtr struct {
		addr int64
		seq  uint64
	}
	pendingPtr := make(map[ptrKey]loggedPtr)
	// packSeq is the newest partial that packed each inode, ptrSeq the newest
	// that wrote each of its pointer blocks: the single indirect block under
	// lbn -1, a double-indirect child under its slot.
	packSeq := make(map[Ino]uint64)
	ptrSeq := make(map[ptrKey]uint64)
	// patches holds, per block, the patches logged since the block was last
	// logged whole, oldest first.
	patches := make(map[ptrKey][]patch)
	// apply folds one intact partial's summary into the recovered state:
	// blocks map one-to-one onto the entries with block-consuming kinds, in
	// order, at pos+1, pos+2, ... Inode pack blocks are decoded to learn
	// which inodes they carry; deletion records drop imap entries. Patches
	// come after the entries.
	apply := func(sum summary, payload [][]byte, pos, seg int64) error {
		blockIdx := int64(0)
		for _, e := range sum.Entries {
			switch e.Kind {
			case kindDelete:
				delete(fs.imap, e.Ino)
				if e.Ino >= fs.nextIno {
					fs.nextIno = e.Ino + 1
				}
				for k := range pendingPtr {
					if k.ino == e.Ino {
						delete(pendingPtr, k)
					}
				}
				for k := range patches {
					if k.ino == e.Ino {
						delete(patches, k)
					}
				}
				continue
			case kindData:
				pendingPtr[ptrKey{e.Ino, e.Index}] = loggedPtr{pos + 1 + blockIdx, sum.Seq}
				delete(patches, ptrKey{e.Ino, e.Index})
			case kindInd:
				ptrSeq[ptrKey{e.Ino, -1}] = sum.Seq
			case kindDChild:
				ptrSeq[ptrKey{e.Ino, e.Index}] = sum.Seq
			case kindInodePack:
				addr := pos + 1 + blockIdx
				// The payload CRC already matched, so the pack bytes are
				// the ones the summary was written against; a decode error
				// here is genuine corruption, not a torn tail.
				pack, err := decodeInodePack(payload[blockIdx])
				if err != nil {
					return fmt.Errorf("lfs: roll-forward pack at %d: %w", addr, err)
				}
				for _, in := range pack {
					fs.imap[in.Ino] = addr
					packSeq[in.Ino] = sum.Seq
					if in.Ino >= fs.nextIno {
						fs.nextIno = in.Ino + 1
					}
				}
			}
			blockIdx++
		}
		for _, p := range sum.Patches {
			k := ptrKey{p.Ino, p.LBN}
			patches[k] = append(patches[k], p)
		}
		fs.segs[seg].SeqStamp = sum.Seq
		return nil
	}
	// batch holds the partials of a not-yet-terminated flush chain; commit
	// rewinds to the position/sequence after the last applied terminator.
	type readPartial struct {
		sum     summary
		payload [][]byte
		pos     int64
		seg     int64
	}
	var batch []readPartial
	commit := struct {
		seg, off, next int64
		seq            uint64
	}{curSeg, curOff, nextSeg, seq}
	for {
		if curOff >= fs.sb.SegmentBlocks-minSegmentTail+1 || curOff >= fs.sb.SegmentBlocks {
			// Current segment exhausted: the writer moved to nextSeg.
			curSeg, curOff = nextSeg, 0
			pos = fs.segBase(curSeg)
		}
		sum, payload, ok, err := fs.readPartialLocked(pos)
		if err != nil {
			return err
		}
		if !ok || sum.Seq != seq {
			// Check whether the writer advanced early (e.g. the partial
			// didn't fit the remaining space): try the next segment once.
			if curOff != 0 {
				tryPos := fs.segBase(nextSeg)
				s2, p2, ok2, err := fs.readPartialLocked(tryPos)
				if err != nil {
					return err
				}
				if ok2 && s2.Seq == seq {
					curSeg, curOff, pos = nextSeg, 0, tryPos
					sum, payload, ok = s2, p2, true
				}
			}
			if !ok || sum.Seq != seq {
				break
			}
		}
		batch = append(batch, readPartial{sum, payload, pos, curSeg})
		seq++
		nextSeg = sum.NextSeg
		curOff += int64(1 + sum.NBlocks)
		pos = fs.segBase(curSeg) + curOff
		if sum.Flags&sumFlagCont == 0 {
			for _, p := range batch {
				if err := apply(p.sum, p.payload, p.pos, p.seg); err != nil {
					return err
				}
			}
			batch = batch[:0]
			commit.seg, commit.off, commit.next, commit.seq = curSeg, curOff, nextSeg, seq
		}
	}
	// An unterminated batch is discarded whole; the log resumes where the
	// last complete batch ended.
	fs.curSeg, fs.curOff, fs.nextSeg = commit.seg, commit.off, commit.next
	fs.seq = commit.seq

	// Rebuild deferred pointers from the summaries' data entries: indirect-
	// range entries restore pointer-block updates that were never written
	// before the crash, direct-range entries the inode's own pointers.
	byBlock := func(a, b ptrKey) int { return cmp.Or(cmp.Compare(a.ino, b.ino), cmp.Compare(a.lbn, b.lbn)) }
	np := nptr(fs.blockSize)
	for _, k := range detsort.KeysFunc(pendingPtr, byBlock) {
		p := pendingPtr[k]
		// A pack holds every direct pointer as of its own partial, and a
		// pointer block every pointer of its range, so each is authoritative
		// for all entries up to it. Replaying an older one could resurrect a
		// dead block: truncate to zero, regrow sparsely, and this lbn is a
		// hole below the new size.
		guard := packSeq[k.ino]
		switch {
		case k.lbn >= NDirect+np:
			guard = ptrSeq[ptrKey{k.ino, (k.lbn - NDirect - np) / np}]
		case k.lbn >= NDirect:
			guard = ptrSeq[ptrKey{k.ino, -1}]
		}
		if p.seq <= guard {
			continue
		}
		if _, ok := fs.imap[k.ino]; !ok {
			continue // deleted after the write
		}
		in, err := fs.loadInode(k.ino)
		if err != nil {
			return fmt.Errorf("lfs: pointer replay for inode %d: %w", k.ino, err)
		}
		if k.lbn >= (in.Size+int64(fs.blockSize)-1)/int64(fs.blockSize) {
			// Beyond the recovered size (e.g. a truncate intervened).
			continue
		}
		if _, err := fs.setBlockAddr(in, k.lbn, p.addr); err != nil {
			return err
		}
	}

	// Lay each block's patches over its last logged copy, now that the
	// pointers lead to it, and stage the result: Mount's checkpoint logs it
	// whole.
	for _, k := range detsort.KeysFunc(patches, byBlock) {
		if _, ok := fs.imap[k.ino]; !ok {
			continue
		}
		in, err := fs.loadInode(k.ino)
		if err != nil {
			return fmt.Errorf("lfs: patch replay for inode %d: %w", k.ino, err)
		}
		if k.lbn*int64(fs.blockSize) >= in.Size {
			continue
		}
		id := blockIDOf(k.ino, k.lbn)
		b := fs.stage.Frame(id, true)
		if err := fs.readLoggedLocked(in, k.lbn, b); err != nil {
			return err
		}
		for _, p := range patches[k] {
			copy(b[p.Off:], p.Data)
		}
	}
	return nil
}

// rebuildUsageLocked recomputes the segment usage table from the recovered
// imap: walk every inode and count its blocks live in their segments.
func (fs *FS) rebuildUsageLocked() error {
	for s := range fs.segs {
		fs.segs[s].Live = 0
		if fs.segs[s].State == segCurrent || fs.segs[s].State == segReserved {
			fs.segs[s].State = segInLog
		}
	}
	mark := func(addr int64) {
		if s := fs.segOf(addr); s >= 0 {
			fs.segs[s].Live++
			if fs.segs[s].State == segFree {
				fs.segs[s].State = segInLog
			}
		}
	}
	// Inode pack blocks are shared: count each pack block once and rebuild
	// the reference counts from the imap.
	fs.packRefs = make(map[int64]int)
	for _, ino := range detsort.Keys(fs.imap) {
		addr := fs.imap[ino]
		if fs.packRefs[addr] == 0 {
			mark(addr)
		}
		fs.packRefs[addr]++
		in, err := fs.loadInode(ino)
		if err != nil {
			return fmt.Errorf("lfs: usage rebuild of inode %d: %w", ino, err)
		}
		err = fs.forEachBlock(in, func(kind blockKind, index, a int64) error {
			mark(a)
			return nil
		})
		if err != nil {
			return err
		}
	}
	// Segments with no live blocks become free, except the log head and
	// its reserved successor.
	fs.free = 0
	for s := int64(0); s < fs.sb.NumSegments; s++ {
		if fs.segs[s].Live == 0 && s != fs.curSeg && s != fs.nextSeg {
			fs.segs[s].State = segFree
			fs.free++
		} else if fs.segs[s].Live > 0 && fs.segs[s].State == segFree {
			fs.segs[s].State = segInLog
		}
	}
	fs.segs[fs.curSeg].State = segCurrent
	fs.segs[fs.nextSeg].State = segReserved
	return nil
}
