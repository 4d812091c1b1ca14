package lfs

import (
	"fmt"
	"sort"

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
// are written — the commit-force path. When deferPtr is set (commit forces),
// dirty indirect-pointer blocks stay in memory: the partial segment's
// summary records every data block's (inode, logical block) pair, so
// roll-forward can reconstruct the pointers after a crash — the same trick
// that lets real LFS implementations keep fsync cheap. Full flushes
// (deferPtr false) write the pointer blocks out, and so does a commit force
// for a file a truncate shrank (inode.ptrsCleared). commit is a group-commit
// batch's page set (FlushCommit): the only held pages a flush may write.
func (fs *FS) flushLocked(only map[Ino]bool, deferPtr bool, commit []CommitPage) error {
	if !fs.cleaning && fs.free < cleanThreshold {
		if err := fs.cleanLocked(); err != nil {
			return err
		}
	}

	// logged is the part of commit already in the log: a re-gather after a
	// mid-flush cleaning pass must not write it again.
	var logged map[buffer.BlockID]bool
	items, files, err := fs.gatherLocked(only, deferPtr, commit, logged)
	if err != nil {
		return err
	}
	if len(items) == 0 && len(files) == 0 && len(fs.pendingDel) == 0 {
		return nil
	}

	// Partition work into partial segments: at most maxFilesPerPartial
	// files and a data-block budget that, together with the worst-case
	// meta-data estimate, fits a segment. When the batch needs more than
	// one partial, all but the last are flagged sumFlagCont so recovery
	// applies the batch atomically — a commit force's pages must never be
	// half-visible after a crash.
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
			items, files, err = fs.gatherLocked(only, deferPtr, commit, logged)
			if err != nil {
				return err
			}
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
		if err := fs.writePartialLocked(chunk, chunkFiles, deferPtr); err != nil {
			return err
		}
		if len(commit) > 0 && fs.chainCont {
			if logged == nil {
				logged = make(map[buffer.BlockID]bool)
			}
			for _, it := range chunk {
				logged[it.id] = true
			}
		}
	}
	fs.chainCont = false
	// Deletion records with no accompanying blocks still need logging.
	if len(fs.pendingDel) > 0 {
		if err := fs.writePartialLocked(nil, nil, deferPtr); err != nil {
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

// gatherLocked collects the dirty data blocks (pool + stage) and the set
// of files whose meta-data needs rewriting. Held pages are uncommitted and
// stay out of every flush, with one exception: commit lists the pages of a
// group-commit batch, each with the image to log (see CommitPage). Pages in
// logged were written by an earlier partial of the same flush.
func (fs *FS) gatherLocked(only map[Ino]bool, deferPtr bool, commit []CommitPage, logged map[buffer.BlockID]bool) ([]dataItem, []Ino, error) {
	want := func(ino Ino) bool { return only == nil || only[ino] }

	var items []dataItem
	for _, b := range fs.pool.Dirty() {
		if !want(Ino(b.ID.File)) {
			continue
		}
		items = append(items, dataItem{id: b.ID, buf: b, data: b.Data})
	}
	commitIDs := make(map[buffer.BlockID]bool, len(commit))
	for _, cp := range commit {
		if logged[cp.ID] {
			continue
		}
		commitIDs[cp.ID] = true
		if cp.Image != nil {
			// buf stays nil: the resident page carries a running
			// transaction's bytes beyond this image and remains dirty.
			items = append(items, dataItem{id: cp.ID, data: cp.Image})
			continue
		}
		b := fs.pool.Lookup(cp.ID)
		if b == nil {
			return nil, nil, fmt.Errorf("lfs: commit page %v is not resident", cp.ID)
		}
		items = append(items, dataItem{id: cp.ID, buf: b, data: b.Data})
	}
	for _, id := range fs.stage.Blocks(func(f buffer.FileID) bool { return want(Ino(f)) }) {
		if commitIDs[id] {
			// The commit's after-image of this block is being written in
			// the same batch; the staged (older) copy is superseded.
			fs.stage.Unpark(id)
			continue
		}
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
	// Deterministic order: by file, then logical block.
	sort.Slice(items, func(i, j int) bool {
		if items[i].id.File != items[j].id.File {
			return items[i].id.File < items[j].id.File
		}
		return items[i].id.Block < items[j].id.Block
	})

	fileSet := make(map[Ino]bool)
	for _, it := range items {
		fileSet[Ino(it.id.File)] = true
	}
	// Files with dirty meta-data but no dirty data blocks.
	for ino, in := range fs.inodes {
		if !want(ino) || fileSet[ino] {
			continue
		}
		if deferPtr {
			// A file with nothing to pack and no data contributes no block:
			// listing it would emit an empty partial.
			if fs.packsLocked(in, true) {
				fileSet[ino] = true
			}
		} else if fs.inodeMetaDirty(in) {
			fileSet[ino] = true
		}
	}
	var metaOnly []Ino
	for _, ino := range detsort.Keys(fileSet) {
		found := false
		for _, it := range items {
			if Ino(it.id.File) == ino {
				found = true
				break
			}
		}
		if !found {
			metaOnly = append(metaOnly, ino)
		}
	}
	return items, metaOnly, nil
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

// flushRelocLocked writes the cleaner's scoped work list. Cleaning is in
// progress, so no further cleaning is triggered; segment advances may dig
// into the reserve cleanThreshold maintains.
func (fs *FS) flushRelocLocked(ids map[buffer.BlockID]bool, inos map[Ino]bool) error {
	items, files := fs.gatherRelocLocked(ids, inos)
	for len(items) > 0 || len(files) > 0 {
		chunk, chunkFiles, err := fs.takeChunk(&items, &files, false)
		if err != nil {
			return err
		}
		if err := fs.writePartialLocked(chunk, chunkFiles, false); err != nil {
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

// metaCostLocked returns the exact number of indirect-pointer blocks that
// flushing the given logical blocks of a file will write, including pointer
// blocks that are already dirty from earlier operations. The shared inode
// pack block is accounted separately by the caller.
func (fs *FS) metaCostLocked(in *inode, lbns []int64) int {
	np := nptr(fs.blockSize)
	needInd := in.ind != nil && in.ind.dirty
	needDind := in.dind != nil && in.dind.dirty
	slots := map[int64]bool{}
	for slot, c := range in.dchild {
		if c.dirty {
			slots[slot] = true
		}
	}
	for _, lbn := range lbns {
		switch {
		case lbn < NDirect:
		case lbn < NDirect+np:
			needInd = true
		default:
			slots[(lbn-NDirect-np)/np] = true
			needDind = true
		}
	}
	// Rewriting a child moves it, so its address in the double indirect
	// block changes too — also when the child is dirty only because an
	// earlier commit force (deferPtr) left it behind and none of lbns lies in
	// the double-indirect range.
	if len(slots) > 0 {
		needDind = true
	}
	cost := len(slots)
	if needInd {
		cost++
	}
	if needDind {
		cost++
	}
	return cost
}

// partialCostLocked computes the exact block count of a partial segment
// carrying the given data items and meta-only files: summary + data +
// pointer blocks + inode pack blocks.
func (fs *FS) partialCostLocked(perFile map[Ino][]int64, deferPtr bool) (int, error) {
	total := 1 // summary
	packed := 0
	for _, ino := range detsort.Keys(perFile) {
		in, err := fs.loadInode(ino)
		if err != nil {
			return 0, err
		}
		total += len(perFile[ino])
		if !deferPtr || in.ptrsCleared {
			total += fs.metaCostLocked(in, perFile[ino])
		}
		if fs.packsLocked(in, deferPtr) {
			packed++
		}
	}
	packCap := maxInodesPerPack(fs.blockSize)
	total += (packed + packCap - 1) / packCap
	return total, nil
}

// takeChunk removes up to one partial segment's worth of work from items and
// files, using exact cost accounting so the assembled partial can never
// outgrow a segment.
func (fs *FS) takeChunk(items *[]dataItem, files *[]Ino, deferPtr bool) ([]dataItem, []Ino, error) {
	segBlocks := int(fs.sb.SegmentBlocks)
	budget := segBlocks - minSegmentTail
	if cap := maxSummaryEntries(fs.blockSize) - 16; budget > cap {
		budget = cap
	}

	perFile := map[Ino][]int64{}
	var chunk []dataItem
	i := 0
	for ; i < len(*items); i++ {
		it := (*items)[i]
		ino := Ino(it.id.File)
		if len(chunk) >= maxDataPerPartial {
			break
		}
		if _, ok := perFile[ino]; !ok && len(perFile) >= maxFilesPerPartial {
			break
		}
		perFile[ino] = append(perFile[ino], it.id.Block)
		cost, err := fs.partialCostLocked(perFile, deferPtr)
		if err != nil {
			return nil, nil, err
		}
		if cost > budget && len(chunk) > 0 {
			// Undo the tentative addition and stop.
			perFile[ino] = perFile[ino][:len(perFile[ino])-1]
			if len(perFile[ino]) == 0 {
				delete(perFile, ino)
			}
			break
		}
		chunk = append(chunk, it)
	}
	*items = (*items)[i:]

	var chunkFiles []Ino
	for len(*files) > 0 {
		ino := (*files)[0]
		_, present := perFile[ino]
		if !present && len(perFile) >= maxFilesPerPartial {
			break
		}
		if !present {
			perFile[ino] = []int64{}
		}
		cost, err := fs.partialCostLocked(perFile, deferPtr)
		if err != nil {
			return nil, nil, err
		}
		if cost > budget && (len(chunk) > 0 || len(chunkFiles) > 0) {
			if !present {
				delete(perFile, ino)
			}
			break
		}
		*files = (*files)[1:]
		chunkFiles = append(chunkFiles, ino)
	}
	return chunk, chunkFiles, nil
}

// writePartialLocked emits one partial segment: a summary block followed by
// the chunk's data blocks, then the affected pointer blocks and inodes (in
// dependency order), then logs pending deletions in the summary.
func (fs *FS) writePartialLocked(chunk []dataItem, metaOnly []Ino, deferPtr bool) error {
	fileSet := map[Ino]bool{}
	perFile := map[Ino][]int64{}
	for _, it := range chunk {
		fileSet[Ino(it.id.File)] = true
		perFile[Ino(it.id.File)] = append(perFile[Ino(it.id.File)], it.id.Block)
	}
	for _, ino := range metaOnly {
		fileSet[ino] = true
		if _, ok := perFile[ino]; !ok {
			perFile[ino] = []int64{}
		}
	}
	cost, err := fs.partialCostLocked(perFile, deferPtr)
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
	for len(fs.pendingDel) > 0 && len(entries) < maxSummaryEntries(fs.blockSize) {
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
	}
	blocks[0] = fs.frames.Take()
	if err := sum.encode(blocks[0]); err != nil {
		return err
	}
	// Hard invariant: the partial is no larger than partialCostLocked
	// promised. The room check above trusted that count, so a partial that
	// outgrows it can cross the segment boundary and clobber the neighbouring
	// segment's summaries; failing on any excess, not only at a boundary,
	// makes a cost-accounting bug show on the first partial it touches.
	if int64(len(blocks)) > required {
		return fmt.Errorf("lfs: internal error: partial segment of %d blocks at offset %d outgrew its cost estimate of %d (segment of %d blocks)",
			len(blocks), fs.curOff, required, fs.sb.SegmentBlocks)
	}
	if err := fs.dev.WriteRun(base, blocks); err != nil {
		return err
	}
	fs.segs[fs.curSeg].SeqStamp = fs.seq
	// Maintain the summary cache, but only where it is complete: a fresh
	// entry when this partial starts the segment, an append when the cache
	// already covers everything before it. (After a mount the current
	// segment may have pre-existing partials we never saw; its cache entry
	// stays absent and the cleaner falls back to the disk walk.)
	if fs.curOff == 0 {
		fs.sumCache[fs.curSeg] = []summary{sum}
	} else if sums, ok := fs.sumCache[fs.curSeg]; ok {
		fs.sumCache[fs.curSeg] = append(sums, sum)
	}
	fs.seq++
	fs.curOff += int64(len(blocks))
	fs.stats.PartialSegments++
	fs.stats.BlocksLogged += int64(len(blocks))
	fs.stats.SummaryBlocks++
	kinds := countKinds(entries)
	fs.stats.InodePackBlocks += kinds[kindInodePack]
	fs.stats.PointerBlocks += kinds[kindInd] + kinds[kindDInd] + kinds[kindDChild]

	// 5. The written blocks are now clean/persisted.
	for _, it := range chunk {
		if it.buf != nil {
			fs.pool.MarkClean(it.buf)
		}
		fs.stage.Unpark(it.id)
	}

	if fs.sb.SegmentBlocks-fs.curOff < minSegmentTail {
		return fs.advanceSegmentLocked()
	}
	return nil
}

// advanceSegmentLocked seals the current segment and moves the log head to
// the pre-allocated next segment, reserving a new successor.
func (fs *FS) advanceSegmentLocked() error {
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
