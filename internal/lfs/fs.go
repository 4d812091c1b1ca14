package lfs

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/frame"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/ufs"
	"repro/internal/vfs"
)

// Options configures the file system.
type Options struct {
	// SegmentBlocks is the segment size in blocks (default 128 = 512 KB).
	SegmentBlocks int64
	// CheckpointBlocks is the size of each checkpoint region (default 64).
	CheckpointBlocks int64
	// CacheBlocks is the buffer cache capacity (default 1024 = 4 MB).
	CacheBlocks int
	// CheckpointEvery writes a checkpoint after this many partial
	// segments (default 512), bounding the roll-forward work a crash can
	// require. Sprite LFS checkpointed on a timer for the same reason.
	CheckpointEvery int
	// InodeAtSync is ufs.Ops.InodeAtSync: the `txnbench -fig fsync` arm.
	InodeAtSync bool
}

func (o *Options) fill() {
	if o.SegmentBlocks == 0 {
		o.SegmentBlocks = defaultSegmentBlocks
	}
	if o.CheckpointBlocks == 0 {
		o.CheckpointBlocks = defaultCheckpointBlocks
	}
	if o.CacheBlocks == 0 {
		o.CacheBlocks = 1024
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 512
	}
}

// Stats reports file system activity.
type Stats struct {
	PartialSegments int64 `json:"partial_segments"` // partial segments written
	BlocksLogged    int64 `json:"blocks_logged"`    // blocks written to the log (incl. one summary per partial segment)
	InodePackBlocks int64 `json:"inode_pack_blocks"`
	PointerBlocks   int64 `json:"pointer_blocks"` // single, double indirect and child blocks
	Checkpoints     int64 `json:"checkpoints"`
	StagedFlushes   int64 `json:"staged_flushes"` // flushes of a full stage
	// HotBlocksLeft counts the dirty cached blocks full-stage flushes left
	// dirty, because the previous full-stage flush had seen them dirty too.
	HotBlocksLeft int64 `json:"hot_blocks_left"`
	// SkippedTailBlocks counts the blocks left unwritten at the end of the
	// segments the log head moved past.
	SkippedTailBlocks int64 `json:"skipped_tail_blocks"`
	// Commit forces (File.Sync, FlushCommit): SummaryOnlyForces wrote summary
	// blocks whose patch records carried PatchBytes bytes (one, or a
	// FlushCommit's chain with its packs and pointer blocks); FullForceCauses
	// counts the File.Syncs that logged blocks whole, by why.
	SummaryOnlyForces int64       `json:"summary_only_forces"`
	PatchBytes        int64       `json:"patch_bytes"`
	FullForceCauses   ForceCauses `json:"full_force_causes"`
	// SummarySectors counts the 512-byte sectors written by partial segments
	// with no block after their summary: the summary-only forces' (but for a
	// FlushCommit chain's partials that carry packs or pointer blocks) and
	// those of deletion records alone.
	SummarySectors int64 `json:"summary_sectors"`
	// Stage counts the fetches the stage served instead of the log, from
	// parked and from kept blocks, and the kept blocks it reclaimed unread;
	// StagedPatched the pages summary-only forces patched while a copy was
	// parked: pages read back from the stage and committed without a block.
	Stage         ufs.StageStats `json:"stage"`
	StagedPatched int64          `json:"staged_patched"`
	Cleaner       CleanerStats   `json:"cleaner"`
	// WriteBehind is the background-lane time of write-behind
	// (writeBehindLocked).
	WriteBehind disk.BgTimes `json:"write_behind"`
}

// ForceCauses splits the commit forces that logged blocks whole by what
// refused File.Sync the summary-only force (planForceLocked).
type ForceCauses struct {
	NoDelta         int64 `json:"no_delta"`         // a dirty block's changed ranges were not known
	StagedUndurable int64 `json:"staged_undurable"` // the file had a staged block that is not its durable image
	InodePack       int64 `json:"inode_pack"`       // the file's inode had to be packed
	SummaryRoom     int64 `json:"summary_room"`     // the changed ranges did not fit the summary block
	PtrsCleared     int64 `json:"ptrs_cleared"`     // a truncate had cleared pointers, which the force must log
}

// Total returns the commit forces that logged blocks whole.
func (c ForceCauses) Total() int64 {
	return c.NoDelta + c.StagedUndurable + c.InodePack + c.SummaryRoom + c.PtrsCleared
}

// upper is the layer LFS shares with FFS: namespace, directories and open
// files over this file system's inodes.
type upper = ufs.FS[*inode]

// FS is a mounted log-structured file system. The embedded upper layer
// supplies Create, Open, Mkdir, ReadDir, Stat, Remove and SetTxnProtected.
// It has no lock: it must be used from proc context, or from the main
// goroutine while no scheduler runs.
type FS struct {
	*upper
	dev       *disk.Device
	clock     *sim.Clock
	pool      *buffer.Pool
	blockSize int
	sb        superblock
	opts      Options

	imap    map[Ino]int64 // inode number → disk address of inode block
	segs    []segInfo
	free    int64 // count of segFree segments
	curSeg  int64
	curOff  int64
	nextSeg int64
	seq     uint64 // next partial-segment sequence number
	cpSeq   uint64 // checkpoint sequence (even/odd selects the region)
	cpBound uint64 // seq at last checkpoint: segments stamped ≥ this are
	// part of the uncheckpointed log tail and must not be reused
	nextIno Ino

	inodes map[Ino]*inode // loaded inodes
	// frames are the file system's block-sized scratch: the summary,
	// inode-pack and pointer blocks a partial segment encodes, the block an
	// inode or pointer block is decoded from. Encode scratch goes back when
	// its partial is on the device.
	frames frame.List
	// stage holds evicted dirty blocks and the cleaner's relocations until
	// the next partial segment carries them; its bound is one segment.
	stage      *ufs.Stage
	pendingDel []Ino
	// hot holds the cached blocks the last full-stage flush found dirty,
	// written or left. The next one leaves each of them that is dirty again
	// for its eviction to park or the checkpoint to log (leaveLocked), and
	// collects what it finds dirty in seen — nil outside a full-stage flush —
	// which then replaces hot.
	hot, seen map[buffer.BlockID]bool
	// deltas holds what each dirty block written through the cache changed
	// since its bytes were last durable, while that is known (noteWrite);
	// patched the blocks whose newest durable bytes are in summary patches
	// only, which a checkpoint must log whole first, with a copy of those
	// patches (patch.go).
	deltas   map[buffer.BlockID]delta
	patched  map[buffer.BlockID][]patch
	cleaning bool
	// chainCont is set while a multi-partial flush batch is incomplete:
	// every partial written in that window (including cleaner relocations
	// triggered mid-flush) carries sumFlagCont, and checkpoints are
	// deferred, so recovery can never expose a prefix of the batch.
	chainCont bool
	// packRefs counts how many imap entries point into each inode pack
	// block; a pack block is dead (its segment's live count drops) only
	// when the last inode in it has been superseded.
	packRefs map[int64]int
	stats    Stats
	tracer   *trace.Tracer // nil = tracing off
	// sumCache holds, per in-log segment, the summaries of ALL its partial
	// segments — present only when complete (built up from offset 0).
	// It lets the cleaner identify a victim's live blocks without reading
	// the whole segment back: it reads just the live data blocks, an ~8×
	// I/O saving at typical victim utilisation. Cache misses (e.g. segments
	// written before the last mount) fall back to reading the summary
	// chain from disk.
	sumCache map[int64][]summary
}

var _ vfs.FileSystem = (*FS)(nil)

// Format initializes a fresh file system on dev and returns it mounted.
func Format(dev *disk.Device, clock *sim.Clock, opts Options) (*FS, error) {
	opts.fill()
	bs := dev.BlockSize()
	segStart := 1 + 2*opts.CheckpointBlocks
	nseg := (dev.NumBlocks() - segStart) / opts.SegmentBlocks
	if nseg < cleanTarget+2 {
		return nil, fmt.Errorf("lfs: device too small: %d segments", nseg)
	}
	sb := superblock{
		Magic:         superMagic,
		Version:       formatVersion,
		BlockSize:     uint32(bs),
		TotalBlocks:   dev.NumBlocks(),
		SegmentBlocks: opts.SegmentBlocks,
		CPBlocks:      opts.CheckpointBlocks,
		SegStart:      segStart,
		NumSegments:   nseg,
	}
	if err := dev.Write(superBlockAddr, sb.encode(bs)); err != nil {
		return nil, err
	}
	fs := &FS{
		dev:       dev,
		clock:     clock,
		blockSize: bs,
		sb:        sb,
		opts:      opts,
		imap:      make(map[Ino]int64),
		segs:      make([]segInfo, nseg),
		free:      nseg,
		curSeg:    0,
		curOff:    0,
		nextSeg:   1,
		seq:       1,
		cpSeq:     0,
		cpBound:   1,
		nextIno:   RootIno + 1,
		inodes:    make(map[Ino]*inode),
		packRefs:  make(map[int64]int),
		sumCache:  make(map[int64][]summary),
	}
	fs.segs[0].State = segCurrent
	fs.segs[1].State = segReserved
	fs.free -= 2
	fs.attach()

	// Create the root directory.
	root := &inode{Inode: ufs.Inode{Ino: RootIno, Mode: ufs.ModeDir, Nlink: 2, Dirty: true}}
	fs.inodes[RootIno] = root
	if err := fs.WriteDirLocked(root, nil); err != nil {
		return nil, err
	}
	if err := fs.checkpointLocked(); err != nil {
		return nil, err
	}
	return fs, nil
}

// attach builds the buffer cache and the shared upper layer over it. The
// vector is what LFS does its own way: inodes are found through the imap and
// rewritten by the next flush (so an attribute change needs nothing beyond
// the dirty bits), a write needs no block until the segment writer places
// it, and a deletion is a record in the next summary.
func (fs *FS) attach() {
	fs.frames = frame.NewList(fs.blockSize)
	fs.stage = ufs.NewStage(int(fs.sb.SegmentBlocks), fs.blockSize)
	fs.deltas = make(map[buffer.BlockID]delta)
	fs.patched = make(map[buffer.BlockID][]patch)
	fs.pool = buffer.New(fs.opts.CacheBlocks, fs.blockSize, fs.writeback)
	fs.pool.SetClock(fs.clock)
	fs.upper = ufs.New(ufs.Ops[*inode]{
		Pool:     fs.pool,
		Clock:    fs.clock,
		Fetch:    fs.fetchBlock,
		Load:     fs.loadInode,
		Alloc:    fs.allocInodeLocked,
		Drop:     fs.forgetInodeLocked,
		Free:     fs.freeInodeLocked,
		Release:  fs.releaseLocked,
		Update:   func(*inode) error { return nil },
		Reserve:  fs.boundLocked,
		Truncate: fs.truncateLocked,
		Sync:     fs.syncLocked,
		Tick:     fs.maybeFlushStageLocked,
		Note:     fs.noteWrite,

		InodeAtSync: fs.opts.InodeAtSync,
	}, false)
}

// allocInodeLocked numbers and registers a blank inode.
func (fs *FS) allocInodeLocked() (*inode, error) {
	in := &inode{Inode: ufs.Inode{Ino: fs.nextIno}}
	fs.nextIno++
	fs.inodes[in.Ino] = in
	return in, nil
}

// forgetInodeLocked undoes allocInodeLocked for the newest inode.
func (fs *FS) forgetInodeLocked(in *inode) {
	delete(fs.inodes, in.Ino)
	fs.nextIno--
}

// freeInodeLocked deletes a removed inode: its pack block loses a reference
// and a deletion record is queued for the next summary so roll-forward
// learns about it.
func (fs *FS) freeInodeLocked(in *inode) error {
	fs.decPackRef(fs.imap[in.Ino])
	delete(fs.imap, in.Ino)
	delete(fs.inodes, in.Ino)
	fs.pendingDel = append(fs.pendingDel, in.Ino)
	return nil
}

// releaseLocked gives back what an inode holds: its blocks become dead in
// their segments, its cached and parked blocks are dropped.
func (fs *FS) releaseLocked(in *inode) error {
	if err := fs.freeFileBlocksLocked(in); err != nil {
		return err
	}
	if err := fs.pool.InvalidateFile(vfs.FileID(in.Ino)); err != nil {
		return err
	}
	fs.stage.UnparkFile(vfs.FileID(in.Ino))
	fs.forgetDeltasLocked(in.Ino)
	return nil
}

// boundLocked refuses a write past the largest mappable block; LFS assigns
// addresses when the segment writer places a block, so there is nothing to
// allocate here.
func (fs *FS) boundLocked(_ *inode, lastLBN int64) error {
	if lastLBN >= maxLBN(fs.blockSize) {
		return ErrFileTooLarge
	}
	return nil
}

// Name implements vfs.FileSystem.
func (fs *FS) Name() string { return "lfs" }

// BlockSize implements vfs.FileSystem.
func (fs *FS) BlockSize() int { return fs.blockSize }

// Pool exposes the buffer cache. The embedded transaction manager
// (internal/core) uses it to hold and invalidate transaction-protected
// buffers, mirroring the kernel data-structure extensions of §4.1.
func (fs *FS) Pool() *buffer.Pool { return fs.pool }

// SetTracer attaches a tracer; cleaning passes then emit cleaner.pass spans
// (with the pass's disk time attributed as cleaner stall rather than
// workload I/O) and checkpoints emit lfs.checkpoint spans. A nil tracer
// costs nothing.
func (fs *FS) SetTracer(tr *trace.Tracer) {
	fs.tracer = tr
}

// ReadCurrent reads a file's logical block into p from the stage or the log,
// bypassing the buffer pool. Snapshot reads use it for pages the cache does
// not hold, without faulting them in: a scan touches every page once, and
// filling the cache with them would evict the writers' hot set.
func (fs *FS) ReadCurrent(id buffer.BlockID, p []byte) error {
	return fs.readBlockLocked(id, p, false)
}

// ReadCurrentRun reads up to len(bufs) logically-sequential committed
// blocks of file id.File starting at id.Block, stopping at the first block
// that is no longer physically contiguous in the log. The contiguous prefix
// is transferred in a single device operation (one seek), which is the
// sequential-read bandwidth a scan gets over data the log has never
// rewritten. Returns how many blocks were filled; 0 with a nil error means
// the first block itself has no contiguous on-disk home (hole or staged)
// and the caller should fall back to ReadCurrent.
func (fs *FS) ReadCurrentRun(id buffer.BlockID, bufs [][]byte) (int, error) {
	if len(bufs) == 0 {
		return 0, nil
	}
	if _, ok := fs.stage.Lookup(id); ok {
		return 0, nil
	}
	in, err := fs.loadInode(Ino(id.File))
	if err != nil {
		return 0, err
	}
	start, err := fs.blockAddr(in, id.Block)
	if err != nil {
		return 0, err
	}
	if start == 0 {
		return 0, nil
	}
	n := 1
	for n < len(bufs) {
		next := buffer.BlockID{File: id.File, Block: id.Block + int64(n)}
		if _, ok := fs.stage.Lookup(next); ok {
			break
		}
		addr, err := fs.blockAddr(in, next.Block)
		if err != nil || addr != start+int64(n) {
			break
		}
		n++
	}
	if err := fs.dev.ReadRun(start, bufs[:n]); err != nil {
		return 0, err
	}
	return n, nil
}

// Stats returns a snapshot of the file system counters.
func (fs *FS) Stats() Stats {
	st := fs.stats
	st.Stage = fs.stage.Stats()
	return st
}

// blockIDOf forms the buffer-cache key of a file's logical block.
func blockIDOf(ino Ino, lbn int64) buffer.BlockID {
	return buffer.BlockID{File: vfs.FileID(ino), Block: lbn}
}

// segBase returns the disk address of the first block of segment s.
func (fs *FS) segBase(s int64) int64 {
	return fs.sb.SegStart + s*fs.sb.SegmentBlocks
}

// segOf returns the segment containing disk address addr, or -1 for
// addresses outside the segment area (superblock, checkpoint regions).
func (fs *FS) segOf(addr int64) int64 {
	if addr < fs.sb.SegStart {
		return -1
	}
	return (addr - fs.sb.SegStart) / fs.sb.SegmentBlocks
}

// accountOld decrements the live count of the segment that held addr.
func (fs *FS) accountOld(addr int64) {
	if addr == 0 {
		return
	}
	if s := fs.segOf(addr); s >= 0 && fs.segs[s].Live > 0 {
		fs.segs[s].Live--
	}
}

// accountNew increments the live count of the segment receiving addr.
func (fs *FS) accountNew(addr int64) {
	if s := fs.segOf(addr); s >= 0 {
		fs.segs[s].Live++
	}
}

// writeback is the buffer pool's dirty-eviction callback. The block cannot
// be written in place (LFS never overwrites); its bytes are parked in the
// stage and written with the next partial segment, and reads consult the
// stage before the disk. The stage models the segment staging buffer, which
// holds about one segment of blocks in a real LFS: once it is full the next
// file system operation writes a segment out (maybeFlushStageLocked). The
// flush cannot run here: the pool is mid-eviction, and a flush would re-enter
// it — walk its dirty set, mark buffers clean — before the evicted buffer has
// left it.
//
// A buffer whose delta is empty holds the block's durable image — its last
// logged copy with the kept patches laid over it (layPatchesLocked) — and is
// parked marked so: it stays durable in the stage, a commit force needs
// nothing of it, and a write to it once it is fetched back is measured
// against it (noteWrite). The pool still holds the buffer it is evicting.
//
//simlint:noalloc
func (fs *FS) writeback(id buffer.BlockID, data []byte) error {
	d, ok := fs.deltas[id]
	fs.stage.Park(id, data, ok && d.n == 0 && d.buf == fs.pool.Lookup(id))
	delete(fs.deltas, id)
	return nil
}

// maybeFlushStageLocked drains the staging buffer when eviction pressure
// filled it: one partial segment of the parked blocks and of the dirty cached
// blocks that were not dirty at the previous full-stage flush. A block that
// was — a hot page rewritten between flushes, or a block dirtied again since
// that flush wrote it — stays dirty until its eviction parks it or the
// checkpoint logs it, so a hot block is not logged again at every flush. No
// caller waits for the partial segment, so it goes out on the device's
// background lane: idle time absorbs it first, and only the residue stalls
// the operation whose tick started it. A cleaning pass the flush needs is
// still charged in full (cleanLocked).
func (fs *FS) maybeFlushStageLocked() error {
	if !fs.stage.TakeFull() {
		return nil
	}
	fs.stats.StagedFlushes++
	fs.seen = make(map[buffer.BlockID]bool)
	err := fs.writeBehindLocked("stage", fs.Flush)
	fs.hot, fs.seen = fs.seen, nil
	return err
}

// leaveLocked records that a full-stage flush found cached block id dirty and
// reports whether the flush leaves it so: the previous full-stage flush found
// it dirty too, and no parked copy of it waits for this one. A buffer
// shadowing a parked copy is written, and the copy dropped (gatherLocked), so
// the stage drains.
func (fs *FS) leaveLocked(id buffer.BlockID) bool {
	again := fs.seen[id] // a gather after a cleaning pass mid-flush
	fs.seen[id] = true
	if _, parked := fs.stage.Lookup(id); parked || !fs.hot[id] {
		return false
	}
	if !again {
		fs.stats.HotBlocksLeft++
	}
	return true
}

// writeBehindLocked runs fn, log writes no caller waits for, on the device's
// background lane: a full stage, the patched blocks a checkpoint logs. Inside
// another background flush it runs as part of it (Device.Background), and
// inside a cleaning pass it simply runs: a pass is charged its way, whatever
// it writes (cleanLocked).
func (fs *FS) writeBehindLocked(what string, fn func() error) error {
	if fs.cleaning {
		return fn()
	}
	span := fs.tracer.Begin("lfs", "lfs.writeBehind")
	logged := fs.stats.BlocksLogged
	err := fs.dev.Background(&fs.stats.WriteBehind, fn)
	span.End(trace.AS("of", what), trace.AI("blocks", fs.stats.BlocksLogged-logged))
	return err
}

// decPackRef drops one reference to the inode pack block at addr, marking
// the block dead in its segment when the last reference goes.
func (fs *FS) decPackRef(addr int64) {
	if addr == 0 {
		return
	}
	fs.packRefs[addr]--
	if fs.packRefs[addr] <= 0 {
		delete(fs.packRefs, addr)
		fs.accountOld(addr)
	}
}

// loadInode returns the in-memory inode for ino, reading its pack block
// from the log if necessary.
func (fs *FS) loadInode(ino Ino) (*inode, error) {
	if in, ok := fs.inodes[ino]; ok {
		return in, nil
	}
	addr, ok := fs.imap[ino]
	if !ok {
		return nil, vfs.ErrNotExist
	}
	buf := fs.frames.Take()
	defer fs.frames.Give(buf) // decoded inodes copy what they keep
	if err := fs.dev.Read(addr, buf); err != nil {
		return nil, err
	}
	pack, err := decodeInodePack(buf)
	if err != nil {
		return nil, fmt.Errorf("inode %d at %d: %w", ino, addr, err)
	}
	for _, in := range pack {
		if in.Ino == ino {
			fs.inodes[ino] = in
			return in, nil
		}
	}
	return nil, fmt.Errorf("%w: imap points %d at a pack without it", ErrCorrupt, ino)
}

// fetchBlock is the buffer-pool fetch path for file data blocks.
func (fs *FS) fetchBlock(id buffer.BlockID, dst []byte) error {
	return fs.readBlockLocked(id, dst, true)
}

// readBlockLocked reads a file block's current bytes into dst: a parked
// block's from the stage, else its last logged copy — from the stage too
// while it is kept there, unless the arm sits on the block. The disk charges
// half a rotation to resume a sequential run a cache hit broke, so a scan
// reading on through the log keeps reading. A block read into the cache
// (cached) leaves the stage: the cache's copy is the one that counts now.
func (fs *FS) readBlockLocked(id buffer.BlockID, dst []byte, cached bool) error {
	if fs.stage.ReadParked(id, dst) {
		return nil
	}
	in, err := fs.loadInode(Ino(id.File))
	if err != nil {
		return err
	}
	addr, err := fs.blockAddr(in, id.Block)
	if err != nil {
		return err
	}
	if addr == 0 {
		clear(dst)
		return nil
	}
	hit := addr != fs.dev.ArmPosition() && fs.stage.ReadKept(id, dst)
	if cached {
		fs.stage.Unpark(id)
	}
	if hit {
		return nil
	}
	return fs.dev.Read(addr, dst)
}

// readLoggedLocked reads the last logged copy of a file block into dst:
// zeros for a hole.
func (fs *FS) readLoggedLocked(in *inode, lbn int64, dst []byte) error {
	addr, err := fs.blockAddr(in, lbn)
	if err != nil {
		return err
	}
	if addr == 0 {
		clear(dst)
		return nil
	}
	return fs.dev.Read(addr, dst)
}

// Sync implements vfs.FileSystem: flush everything and checkpoint.
func (fs *FS) Sync() error {
	return fs.checkpointLocked()
}

// Flush writes all dirty (unheld) buffers and every parked block to the log
// without checkpointing. Inside a full-stage flush (maybeFlushStageLocked) it
// leaves the cached blocks that flush's rule leaves.
func (fs *FS) Flush() error {
	return fs.flushLocked(nil, false)
}

// FlushFile forces one file's dirty (unheld) blocks and meta-data to the
// log whole, with the pointer blocks deferred as in a commit force.
func (fs *FS) FlushFile(ino vfs.FileID) error {
	return fs.flushLocked(map[Ino]bool{Ino(ino): true}, true)
}

// CommitPage is one page of a group-commit batch handed to FlushCommit.
// Image is the page's committed image when that differs from the resident
// buffer — a still-running transaction has written the page since the batch
// pre-committed, and the transaction layer has backed its bytes out of a
// scratch copy. A nil Image means the resident buffer is the committed image.
type CommitPage struct {
	ID    buffer.BlockID
	Image []byte
}

// FlushCommit forces a group-commit batch to the log atomically — the
// embedded transaction manager's commit force (§4.3: "the kernel flushes them
// to disk and releases locks when the writes have completed"). It makes
// durable the committed image of exactly the listed (held) pages, so the log
// never receives an uncommitted byte: a chain of summary-only partial segments
// whose patch records carry each page's changed ranges, or its whole image
// where those are not known, with inode packs where a file's attributes
// changed and pointer blocks where a truncate cleared pointers
// (planForceLocked). The pages stay dirty (Patched) until write-behind, the
// cleaner or a checkpoint logs them whole.
func (fs *FS) FlushCommit(pages []CommitPage) error {
	set := make(map[Ino]bool)
	for _, cp := range pages {
		set[Ino(cp.ID.File)] = true
	}
	return fs.forceLocked(set, pages)
}
