package lfs

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/buffer"
	"repro/internal/detsort"
)

// dataItem is one dirty file block awaiting a log address.
type dataItem struct {
	id   buffer.BlockID
	buf  *buffer.Buf // resident buffer, or nil if the bytes came from the stage
	data []byte
}

// flushLocked writes dirty state to the log as one or more partial segments.
// If only is non-nil, just the listed files (plus pending deletion records)
// are written — File.Sync's full force and FlushFile. When deferPtr is set,
// dirty indirect-pointer blocks stay in memory: the partial segment's
// summary records every data block's (inode, logical block) pair, so
// roll-forward can reconstruct the pointers after a crash — the same trick
// that lets real LFS implementations keep fsync cheap. Full flushes
// (deferPtr false) write the pointer blocks out, and so does a forced flush
// of a file a truncate shrank (inode.ptrsCleared). Held pages are
// uncommitted and stay out of every flush.
func (fs *FS) flushLocked(only map[Ino]bool, deferPtr bool) error {
	if !fs.cleaning && fs.free < cleanThreshold {
		if err := fs.cleanLocked(); err != nil {
			return err
		}
	}

	items, files := fs.gatherLocked(only, deferPtr)
	if len(items) == 0 && len(files) == 0 && len(fs.pendingDel) == 0 {
		return nil
	}

	// Partition work into partial segments (takeChunk): at most
	// maxFilesPerPartial files and an exact block count that fits a segment,
	// or the room left in the current one while more work follows. When
	// the batch needs more than one partial, all but the last are flagged
	// sumFlagCont so recovery applies the batch atomically — a commit
	// force's pages must never be half-visible after a crash.
	lastCleanFree := int64(-1)
	defer func() { fs.chainCont = false }()
	for len(items) > 0 || len(files) > 0 {
		// A long flush can consume segments faster than the entry check
		// anticipated; re-invoke the cleaner mid-flush when the free pool
		// runs low. Guard against a no-progress loop: only retry cleaning
		// once the free count has changed since the last attempt.
		if !fs.cleaning && fs.free < cleanThreshold && fs.free != lastCleanFree {
			lastCleanFree = fs.free
			if err := fs.cleanLocked(); err != nil {
				return err
			}
			if fs.free != lastCleanFree {
				lastCleanFree = -1 // progress: cleaning may be retried
			}
			items, files = fs.gatherLocked(only, deferPtr)
			continue
		}
		chunk, chunkFiles, err := fs.takeChunk(&items, &files, deferPtr)
		if err != nil {
			return err
		}
		// Deletion records are not part of the atomic batch (any flush
		// drains them opportunistically), so only remaining data/meta
		// work keeps the chain open.
		fs.chainCont = len(items) > 0 || len(files) > 0
		if err := fs.writePartialLocked(chunk, chunkFiles, deferPtr, nil); err != nil {
			return err
		}
	}
	fs.chainCont = false
	// Deletion records with no accompanying blocks still need logging.
	if len(fs.pendingDel) > 0 {
		if err := fs.writePartialLocked(nil, nil, deferPtr, nil); err != nil {
			return err
		}
	}
	// Periodic checkpoint: bound the roll-forward chain a crash would
	// have to replay. The checkpoint itself is flushless (the imap always
	// describes flushed state).
	if fs.seq-fs.cpBound >= uint64(fs.opts.CheckpointEvery) {
		return fs.writeCheckpointLocked()
	}
	return nil
}

// gatherLocked collects the dirty, unheld data blocks (pool + stage) and the
// set of files whose meta-data needs rewriting. A full-stage flush's gather
// leaves out the cached blocks leaveLocked leaves dirty.
func (fs *FS) gatherLocked(only map[Ino]bool, deferPtr bool) ([]dataItem, []Ino) {
	want := func(ino Ino) bool { return only == nil || only[ino] }

	var items []dataItem
	for _, b := range fs.pool.Dirty() {
		if want(Ino(b.ID.File)) && !(fs.seen != nil && fs.leaveLocked(b.ID)) {
			items = append(items, dataItem{id: b.ID, buf: b, data: b.Data})
		}
	}
	for _, id := range fs.stage.Blocks(func(f buffer.FileID) bool { return want(Ino(f)) }) {
		// A resident buffer shadows the staged block; if it is dirty it was
		// collected above, if clean the contents are identical and the staged
		// copy is redundant — but the staged block may be a cleaner
		// relocation whose bytes must reach a new address, so keep it unless
		// a dirty buffer already carries the block.
		if b := fs.pool.Lookup(id); b != nil && b.Dirty() && !b.Held() {
			fs.stage.Unpark(id)
			continue
		}
		data, _ := fs.stage.Lookup(id)
		items = append(items, dataItem{id: id, data: data})
	}
	slices.SortFunc(items, func(a, b dataItem) int { return buffer.CompareBlockID(a.id, b.id) })

	hasData := make(map[Ino]bool)
	for _, it := range items {
		hasData[Ino(it.id.File)] = true
	}
	// Files with dirty meta-data but no dirty data blocks. Under deferPtr a
	// file with nothing to pack contributes no block: listing it would emit
	// an empty partial.
	var metaOnly []Ino
	//simlint:ordered sorted below
	for ino, in := range fs.inodes {
		if want(ino) && !hasData[ino] && (deferPtr && fs.packsLocked(in, true) || !deferPtr && fs.inodeMetaDirty(in)) {
			metaOnly = append(metaOnly, ino)
		}
	}
	slices.Sort(metaOnly)
	return items, metaOnly
}

// gatherRelocLocked builds a scoped work list for the cleaner: exactly the
// relocated blocks (preferring a dirty, unheld pool version over the
// relocated on-disk image, since it supersedes it) plus the meta-data of the
// affected files. Scoping matters: the cleaner runs when segments are
// scarce, so its flushes must not drag the entire dirty pool along.
func (fs *FS) gatherRelocLocked(ids map[buffer.BlockID]bool, inos map[Ino]bool) ([]dataItem, []Ino) {
	// Sorted by (file, block), so items needs no further ordering.
	var items []dataItem
	for _, id := range detsort.KeysFunc(ids, buffer.CompareBlockID) {
		if b := fs.pool.Lookup(id); b != nil && b.Dirty() && !b.Held() {
			fs.stage.Unpark(id)
			items = append(items, dataItem{id: id, buf: b, data: b.Data})
			continue
		}
		if data, ok := fs.stage.Lookup(id); ok {
			items = append(items, dataItem{id: id, data: data})
		}
	}
	fileSet := make(map[Ino]bool, len(inos))
	for ino := range inos {
		fileSet[ino] = true
	}
	for _, it := range items {
		delete(fileSet, Ino(it.id.File))
	}
	var metaOnly []Ino
	for _, ino := range detsort.Keys(fileSet) {
		metaOnly = append(metaOnly, ino)
	}
	return items, metaOnly
}

// flushRelocLocked writes a scoped work list: the cleaner's, or the patched
// blocks a checkpoint logs whole. It triggers no cleaning; segment advances
// may dig into the reserve cleanThreshold maintains.
func (fs *FS) flushRelocLocked(ids map[buffer.BlockID]bool, inos map[Ino]bool) error {
	items, files := fs.gatherRelocLocked(ids, inos)
	for len(items) > 0 || len(files) > 0 {
		chunk, chunkFiles, err := fs.takeChunk(&items, &files, false)
		if err != nil {
			return err
		}
		if err := fs.writePartialLocked(chunk, chunkFiles, false, nil); err != nil {
			return err
		}
	}
	return nil
}

// inodeMetaDirty reports whether an inode or any of its cached pointer
// blocks needs rewriting.
func (fs *FS) inodeMetaDirty(in *inode) bool {
	if in.Dirty {
		return true
	}
	if in.ind != nil && in.ind.dirty {
		return true
	}
	if in.dind != nil && in.dind.dirty {
		return true
	}
	//simlint:ordered pure existence predicate: any iteration order yields the same answer
	for _, c := range in.dchild {
		if c.dirty {
			return true
		}
	}
	return false
}

// packsLocked reports whether a flush that touches in writes its inode. A
// full flush always does. A commit force (deferPtr) logs only what
// roll-forward cannot rebuild from the summaries' (inode, logical block)
// entries: an inode whose attributes changed, or one the imap does not know
// yet — recovery and the cleaner reach a file's blocks through its imap entry.
// Anything else stays dirty in memory until the next full flush (checkpoint,
// cleaner relocation, unmount).
func (fs *FS) packsLocked(in *inode, deferPtr bool) bool {
	if !deferPtr || in.AttrDirty {
		return true
	}
	_, mapped := fs.imap[in.Ino]
	return !mapped
}

// fileCost is one file's share of a partial segment under construction: its
// data blocks and the pointer blocks they dirty, on top of those an earlier
// operation left dirty, kept as the blocks join.
type fileCost struct {
	ino   Ino
	data  int  // data blocks
	ptrs  bool // pointer blocks count: a full flush, or a truncate cleared some
	packs bool // the partial writes the inode
	ind   bool // the single indirect block is rewritten
	dind  bool // the double indirect block is rewritten
	slots []int64
}

// size returns the file's data and pointer blocks in the partial.
func (f *fileCost) size() int {
	n := f.data
	if f.ptrs {
		n += len(f.slots)
		if f.ind {
			n++
		}
		// Rewriting a child moves it, so its address in the double indirect
		// block changes too — also when the child is dirty only because an
		// earlier commit force (deferPtr) left it behind and none of the
		// file's blocks lies in the double-indirect range.
		if f.dind || len(f.slots) > 0 {
			n++
		}
	}
	return n
}

// withBlock returns f with logical block lbn added.
func (f fileCost) withBlock(lbn, np int64) fileCost {
	f.data++
	if !f.ptrs {
		return f
	}
	switch {
	case lbn < NDirect:
	case lbn < NDirect+np:
		f.ind = true
	default:
		f.dind = true
		if slot := (lbn - NDirect - np) / np; !slices.Contains(f.slots, slot) {
			// Appending past the stored entry's length leaves that entry as
			// it was if this copy is discarded.
			f.slots = append(f.slots, slot)
		}
	}
	return f
}

// chunkCost counts the blocks of a partial segment as its data blocks and
// files join: summary, data, pointer blocks and inode packs. It is the one
// count of a partial: takeChunk cuts the work by it, and writePartialLocked
// emits exactly the blocks it counted (chunkLen).
type chunkCost struct {
	fs       *FS
	deferPtr bool
	files    []fileCost
	blocks   int // summary, data and pointer blocks
	packed   int // inodes the partial writes
}

// entry returns a copy of the file's entry at index at, or, for at < 0, the
// entry of a file about to join the chunk, with its inode loaded.
func (c *chunkCost) entry(at int, ino Ino) (fileCost, error) {
	if at >= 0 {
		return c.files[at], nil
	}
	in, err := c.fs.loadInode(ino)
	if err != nil {
		return fileCost{}, err
	}
	f := fileCost{ino: ino, ptrs: !c.deferPtr || in.ptrsCleared, packs: c.fs.packsLocked(in, c.deferPtr)}
	if f.ptrs {
		f.ind = in.ind != nil && in.ind.dirty
		f.dind = in.dind != nil && in.dind.dirty
		//simlint:ordered only membership of slots is read
		for slot, ch := range in.dchild {
			if ch.dirty {
				f.slots = append(f.slots, slot)
			}
		}
	}
	return f, nil
}

// find returns the index of ino's entry, or -1.
func (c *chunkCost) find(ino Ino) int {
	for i := range c.files {
		if c.files[i].ino == ino {
			return i
		}
	}
	return -1
}

// costWith returns the partial's block count with f in place of the entry at
// index at (at < 0: f joins).
func (c *chunkCost) costWith(at int, f *fileCost) int {
	blocks, packed := c.blocks+f.size(), c.packed
	if at >= 0 {
		blocks -= c.files[at].size()
	} else if f.packs {
		packed++
	}
	packCap := maxInodesPerPack(c.fs.blockSize)
	return blocks + (packed+packCap-1)/packCap
}

// set puts f in place of the entry at index at, or adds it (at < 0).
func (c *chunkCost) set(at int, f fileCost) {
	c.blocks += f.size()
	if at >= 0 {
		c.blocks -= c.files[at].size()
		c.files[at] = f
		return
	}
	if f.packs {
		c.packed++
	}
	c.files = append(c.files, f)
}

// takeChunk removes one partial segment's worth of work from items and files,
// using exact cost accounting so the assembled partial can never outgrow a
// segment. A partial is budgeted against a whole segment. When the work does
// not fit one partial anyway and this one would not fit the room left in the
// current segment, it is cut to the room instead: a multi-partial flush fills
// the segment to within minSegmentTail and continues at the next one's first
// block. Work that fits one partial stays one partial, written where it fits
// (writePartialLocked), so a commit force is never split at a boundary.
func (fs *FS) takeChunk(items *[]dataItem, files *[]Ino, deferPtr bool) ([]dataItem, []Ino, error) {
	n, nf, cost, err := fs.chunkLen(*items, *files, deferPtr, fs.partialBudget())
	if err != nil {
		return nil, nil, err
	}
	room := int(fs.sb.SegmentBlocks - fs.curOff)
	if more := n < len(*items) || nf < len(*files); more && cost > room {
		rn, rnf, rcost, err := fs.chunkLen(*items, *files, deferPtr, room)
		if err != nil {
			return nil, nil, err
		}
		// The first block is taken whatever it costs; one that overflows
		// the room goes to the next segment with a full budget behind it.
		if rcost <= room {
			n, nf = rn, rnf
		}
	}
	chunk, chunkFiles := (*items)[:n:n], (*files)[:nf:nf]
	*items, *files = (*items)[n:], (*files)[nf:]
	return chunk, chunkFiles, nil
}

// partialBudget is the most blocks a partial segment is assembled to: a
// segment less its tail, and fewer than its summary has entries for.
func (fs *FS) partialBudget() int {
	return min(int(fs.sb.SegmentBlocks)-minSegmentTail, maxSummaryEntries(fs.blockSize)-16)
}

// chunkLen returns how many leading items, and then files, make up one partial
// of at most budget blocks — at least one of them, whatever it costs — and
// the partial's block count.
func (fs *FS) chunkLen(items []dataItem, files []Ino, deferPtr bool, budget int) (n, nf, cost int, err error) {
	np := nptr(fs.blockSize)
	cc := chunkCost{fs: fs, deferPtr: deferPtr, blocks: 1} // the summary
	cost = 1
	take := func(ino Ino, lbn int64) (bool, error) {
		at := cc.find(ino)
		if at < 0 && len(cc.files) >= maxFilesPerPartial {
			return false, nil
		}
		f, err := cc.entry(at, ino)
		if err != nil {
			return false, err
		}
		if lbn >= 0 {
			f = f.withBlock(lbn, np)
		}
		c := cc.costWith(at, &f)
		if c > budget && n+nf > 0 {
			return false, nil
		}
		cc.set(at, f)
		cost = c
		return true, nil
	}
	for ; n < len(items); n++ {
		ok, err := take(Ino(items[n].id.File), items[n].id.Block)
		if err != nil {
			return 0, 0, 0, err
		}
		if !ok {
			break
		}
	}
	for ; nf < len(files); nf++ {
		ok, err := take(files[nf], -1)
		if err != nil {
			return 0, 0, 0, err
		}
		if !ok {
			break
		}
	}
	return n, nf, cost, nil
}

// writePartialLocked emits one partial segment: a summary block followed by
// the chunk's data blocks, then the affected pointer blocks and inodes (in
// dependency order), then logs pending deletions and patches in the summary.
// A partial with no blocks after its summary — a summary-only commit force,
// deletion records alone — writes only the summary's sectors.
func (fs *FS) writePartialLocked(chunk []dataItem, metaOnly []Ino, deferPtr bool, patches []patch) error {
	_, _, cost, err := fs.chunkLen(chunk, metaOnly, deferPtr, math.MaxInt)
	if err != nil {
		return err
	}
	required := int64(cost)
	if required > fs.sb.SegmentBlocks {
		return fmt.Errorf("lfs: partial segment of %d blocks exceeds segment size %d", required, fs.sb.SegmentBlocks)
	}
	if fs.sb.SegmentBlocks-fs.curOff < required {
		if err := fs.advanceSegmentLocked(); err != nil {
			return err
		}
	}

	base := fs.segBase(fs.curSeg) + fs.curOff
	blocks := make([][]byte, 1, required) // slot 0 = summary, filled last
	var entries []summaryEntry
	next := func() int64 { return base + int64(len(blocks)) }
	// The blocks this partial encodes itself — the summary in slot 0 and
	// whatever follows the chunk's data: pointer blocks, inode packs — are
	// scratch frames. The device copies what it is handed, so they go back
	// once the write has returned.
	defer func() {
		if blocks[0] != nil {
			fs.frames.Give(blocks[0])
		}
		if n := 1 + len(chunk); len(blocks) > n {
			for _, f := range blocks[n:] {
				fs.frames.Give(f)
			}
		}
	}()

	// 1. Data blocks.
	for _, it := range chunk {
		in, err := fs.loadInode(Ino(it.id.File))
		if err != nil {
			return fmt.Errorf("lfs: flush of block %v: %w", it.id, err)
		}
		addr := next()
		old, err := fs.setBlockAddr(in, it.id.Block, addr)
		if err != nil {
			return err
		}
		fs.accountOld(old)
		fs.accountNew(addr)
		blocks = append(blocks, it.data)
		entries = append(entries, summaryEntry{Ino: in.Ino, Kind: kindData, Index: it.id.Block})
	}

	// 2. Meta-data blocks per file, in dependency order: double-indirect
	// children first (their addresses go into the double indirect block),
	// then the single and double indirect blocks (addresses go into the
	// inode), then the inode itself (address goes into the imap).
	fileSet := map[Ino]bool{}
	for _, it := range chunk {
		fileSet[Ino(it.id.File)] = true
	}
	for _, ino := range metaOnly {
		fileSet[ino] = true
	}
	var packed []*inode
	for _, ino := range detsort.Keys(fileSet) {
		in, err := fs.loadInode(ino)
		if err != nil {
			return err
		}
		if deferPtr && !in.ptrsCleared {
			// Commit fast path: pointers stay dirty in memory — indirect
			// blocks and, unless its attributes changed, the inode itself;
			// the summary's data entries carry enough for roll-forward to
			// rebuild them after a crash. Pointers a truncate removed are
			// the exception: no summary entry says a block is gone.
			if fs.packsLocked(in, true) {
				packed = append(packed, in)
			}
			continue
		}
		in.ptrsCleared = false
		for _, slot := range detsort.Keys(in.dchild) {
			c := in.dchild[slot]
			if !c.dirty {
				continue
			}
			dind, err := fs.loadDInd(in)
			if err != nil {
				return err
			}
			addr := next()
			fs.accountOld(c.addr)
			fs.accountNew(addr)
			c.addr = addr
			c.dirty = false
			dind.ptrs[slot] = addr
			dind.dirty = true
			b := fs.frames.Take()
			c.encode(b)
			blocks = append(blocks, b)
			entries = append(entries, summaryEntry{Ino: ino, Kind: kindDChild, Index: slot})
		}
		if in.ind != nil && in.ind.dirty {
			addr := next()
			fs.accountOld(in.ind.addr)
			fs.accountNew(addr)
			in.ind.addr = addr
			in.ind.dirty = false
			in.indAddr = addr
			in.Dirty = true
			b := fs.frames.Take()
			in.ind.encode(b)
			blocks = append(blocks, b)
			entries = append(entries, summaryEntry{Ino: ino, Kind: kindInd})
		}
		if in.dind != nil && in.dind.dirty {
			addr := next()
			fs.accountOld(in.dind.addr)
			fs.accountNew(addr)
			in.dind.addr = addr
			in.dind.dirty = false
			in.dindAddr = addr
			in.Dirty = true
			b := fs.frames.Take()
			in.dind.encode(b)
			blocks = append(blocks, b)
			entries = append(entries, summaryEntry{Ino: ino, Kind: kindDInd})
		}
		// The inode is rewritten whenever anything about the file changed
		// (LFS writes the inode in the same partial segment as its data,
		// which is what makes roll-forward recovery possible). All inodes
		// of this partial segment share pack blocks, emitted below.
		packed = append(packed, in)
	}

	// Emit the inode pack block(s): one block per maxInodesPerPack inodes.
	for lo := 0; lo < len(packed); lo += maxInodesPerPack(fs.blockSize) {
		hi := lo + maxInodesPerPack(fs.blockSize)
		if hi > len(packed) {
			hi = len(packed)
		}
		group := packed[lo:hi]
		addr := next()
		for _, in := range group {
			fs.decPackRef(fs.imap[in.Ino])
			fs.imap[in.Ino] = addr
			in.Dirty, in.AttrDirty = false, false
		}
		fs.packRefs[addr] = len(group)
		fs.accountNew(addr)
		b := fs.frames.Take()
		encodeInodePack(b, group)
		blocks = append(blocks, b)
		entries = append(entries, summaryEntry{Kind: kindInodePack, Index: int64(len(group))})
	}

	// 3. Deletion records (no blocks; capacity permitting).
	for len(fs.pendingDel) > 0 && len(entries) < maxSummaryEntries(fs.blockSize) &&
		patchSize(patches) <= patchRoom(fs.blockSize, len(entries)+1) {
		ino := fs.pendingDel[0]
		fs.pendingDel = fs.pendingDel[1:]
		entries = append(entries, summaryEntry{Ino: ino, Kind: kindDelete})
	}

	// 4. Summary block, then one sequential device write.
	var flags uint32
	if fs.chainCont {
		flags = sumFlagCont
	}
	sum := summary{
		Seq:        fs.seq,
		SelfAddr:   base,
		NextSeg:    fs.nextSeg,
		NBlocks:    len(blocks) - 1,
		PayloadCRC: payloadChecksum(blocks[1:]),
		Flags:      flags,
		Entries:    entries,
		Patches:    patches,
	}
	blocks[0] = fs.frames.Take()
	if err := sum.encode(blocks[0]); err != nil {
		return err
	}
	// Hard invariant: the partial has exactly the blocks chunkLen counted.
	// The room check above trusted that count, so a partial that outgrows it
	// can cross the segment boundary and clobber the neighbouring segment's
	// summaries, and takeChunk cut the work by the same count; failing on any
	// difference, not only at a boundary, makes a counting bug show on the
	// first partial it touches.
	if int64(len(blocks)) != required {
		return fmt.Errorf("lfs: internal error: partial segment of %d blocks at offset %d, counted as %d (segment of %d blocks)",
			len(blocks), fs.curOff, required, fs.sb.SegmentBlocks)
	}
	if len(blocks) == 1 {
		// A partial of its summary alone transfers only the sectors the
		// summary fills; the rest of the block is not the summary's.
		n := sum.sectors()
		if err := fs.dev.WriteRange(base, blocks, 0, n); err != nil {
			return err
		}
		fs.stats.SummarySectors += int64(n)
	} else if err := fs.dev.WriteRun(base, blocks); err != nil {
		return err
	}
	fs.segs[fs.curSeg].SeqStamp = fs.seq
	// Maintain the summary cache, but only where it is complete: a fresh
	// entry when this partial starts the segment, an append when the cache
	// already covers everything before it. (After a mount the current
	// segment may have pre-existing partials we never saw; its cache entry
	// stays absent and the cleaner falls back to the disk walk.) The cleaner
	// has no use for patches, and they alias the cache's buffers.
	sum.Patches = nil
	if fs.curOff == 0 {
		fs.sumCache[fs.curSeg] = []summary{sum}
	} else if sums, ok := fs.sumCache[fs.curSeg]; ok {
		fs.sumCache[fs.curSeg] = append(sums, sum)
	}
	fs.seq++
	fs.curOff += int64(len(blocks))
	fs.stats.PartialSegments++
	fs.stats.BlocksLogged += int64(len(blocks))
	kinds := countKinds(entries)
	fs.stats.InodePackBlocks += kinds[kindInodePack]
	fs.stats.PointerBlocks += kinds[kindInd] + kinds[kindDInd] + kinds[kindDChild]

	// 5. The written blocks are now clean/persisted, their patches superseded.
	// A dirty buffer logged from its staged copy differs from the log by
	// their diff, its record from now on; the copy is read before Unpark
	// recycles its frame. A staged block no buffer holds stays kept in its
	// frame, the bytes now at its address, for a fetch to read.
	for _, it := range chunk {
		b := fs.pool.Lookup(it.id)
		if it.buf != nil {
			fs.pool.MarkClean(it.buf)
		} else if b != nil && b.Dirty() {
			fs.rediffLocked(b, it.data)
		}
		if b == nil {
			fs.stage.Keep(it.id)
		} else {
			fs.stage.Unpark(it.id)
		}
		delete(fs.patched, it.id)
	}

	if fs.sb.SegmentBlocks-fs.curOff < minSegmentTail {
		return fs.advanceSegmentLocked()
	}
	return nil
}

// advanceSegmentLocked seals the current segment and moves the log head to
// the pre-allocated next segment, reserving a new successor.
func (fs *FS) advanceSegmentLocked() error {
	fs.stats.SkippedTailBlocks += fs.sb.SegmentBlocks - fs.curOff
	fs.segs[fs.curSeg].State = segInLog
	fs.curSeg = fs.nextSeg
	fs.curOff = 0
	fs.segs[fs.curSeg].State = segCurrent
	ns, err := fs.pickFreeLocked()
	if err != nil {
		// Desperation: try to reclaim dead segments without copying.
		if ferr := fs.freeDeadSegmentsLocked(); ferr == nil {
			ns, err = fs.pickFreeLocked()
		}
		if err != nil {
			return err
		}
	}
	fs.nextSeg = ns
	fs.segs[ns].State = segReserved
	fs.free--
	return nil
}

// pickFreeLocked returns the lowest-numbered clean segment.
func (fs *FS) pickFreeLocked() (int64, error) {
	for s := int64(0); s < fs.sb.NumSegments; s++ {
		if fs.segs[s].State == segFree {
			return s, nil
		}
	}
	return 0, ErrNoSpace
}

// freeDeadSegmentsLocked returns fully-dead, checkpoint-safe segments to the
// free pool without any copying.
func (fs *FS) freeDeadSegmentsLocked() error {
	n := 0
	for s := int64(0); s < fs.sb.NumSegments; s++ {
		if fs.segs[s].State == segInLog && fs.segs[s].Live == 0 && fs.segs[s].SeqStamp < fs.cpBound {
			fs.segs[s].State = segFree
			delete(fs.sumCache, s)
			fs.free++
			n++
		}
	}
	if n == 0 {
		return ErrNoSpace
	}
	return nil
}
