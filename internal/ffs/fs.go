package ffs

import (
	"fmt"
	"time"

	"repro/internal/buffer"
	"repro/internal/detsort"
	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/ufs"
	"repro/internal/vfs"
)

// stageBlocks bounds the write-behind stage: LFS's default segment, 128 blocks
// (512 KB), so both file systems stage evicted dirty blocks in the same
// memory.
const stageBlocks = 128

// Options configures the file system.
type Options struct {
	// MaxInodes sizes the fixed inode table (default 4096).
	MaxInodes int64
	// CacheBlocks is the buffer cache capacity (default 1024).
	CacheBlocks int
	// SyncInterval is the delayed-write age limit (default 30 s, the
	// classic UNIX syncer interval the paper cites).
	SyncInterval time.Duration
	// InodeAtSync is ufs.Ops.InodeAtSync: the `txnbench -fig fsync` arm.
	InodeAtSync bool
}

func (o *Options) fill() {
	if o.MaxInodes == 0 {
		o.MaxInodes = defaultMaxInodes
	}
	if o.CacheBlocks == 0 {
		o.CacheBlocks = 1024
	}
	if o.SyncInterval == 0 {
		o.SyncInterval = 30 * time.Second
	}
}

// Stats reports file system activity.
type Stats struct {
	SyncerRuns    int64 `json:"syncer_runs"`    // passes of the 30-second syncer
	BlocksFlushed int64 `json:"blocks_flushed"` // data blocks any flush wrote in place, from the cache or the stage
	BlocksStaged  int64 `json:"blocks_staged"`  // dirty blocks the cache evicted into the stage
	StagedFlushes int64 `json:"staged_flushes"` // sweeps of a full stage
	// Stage counts the fetches the stage served instead of the disk, from
	// parked and from kept blocks, and the kept blocks it reclaimed unread.
	Stage ufs.StageStats `json:"stage"`
	// Inode-table stores, split by who asked: File.Sync stores a slot only
	// when the size, block map or an attribute changed (AttrDirty); a syncer
	// pass or FS.Sync stores every inode that changed at all.
	SyncInodeStores   int64 `json:"sync_inode_stores"`
	SyncerInodeStores int64 `json:"syncer_inode_stores"`
	// WriteBehind is the background-lane time of syncer passes and sweeps.
	WriteBehind disk.BgTimes `json:"write_behind"`
	// ShortWrites counts the in-place writes that moved only the sectors
	// their blocks' changed bytes fill, and ShortWriteSectors the sectors
	// they moved (buffer.Changed, durable).
	ShortWrites       int64 `json:"short_writes"`
	ShortWriteSectors int64 `json:"short_write_sectors"`
}

// upper is the layer FFS shares with LFS: namespace, directories and open
// files over this file system's inodes.
type upper = ufs.FS[*inode]

// FS is a mounted read-optimized file system. The embedded upper layer
// supplies Create, Open, Mkdir, ReadDir, Stat, Remove and SetTxnProtected.
// It has no lock: it must be used from proc context, or from the main
// goroutine while no scheduler runs.
type FS struct {
	*upper
	dev       *disk.Device
	clock     *sim.Clock
	pool      *buffer.Pool
	queue     *disk.Queue
	blockSize int
	sb        superblock
	opts      Options

	bitmap     []uint64
	inodes     map[Ino]*inode // loaded inodes
	usedSlots  map[Ino]bool   // allocated inode numbers
	nextIno    Ino
	cursor     int64 // rotating allocation cursor
	lastSyncer time.Duration
	// stage holds evicted dirty blocks until a flush sweeps them into place.
	stage *ufs.Stage
	// tableCache holds inode-table blocks (write-through), as the real
	// FFS caches inode blocks in the buffer cache: commit-time fsyncs
	// rewrite an inode without re-reading its table block from disk.
	tableCache map[int64][]byte
	stats      Stats
	tracer     *trace.Tracer // nil = tracing off
}

// readTableBlock returns a cached inode-table block, reading it once.
func (fs *FS) readTableBlock(blk int64) ([]byte, error) {
	if b, ok := fs.tableCache[blk]; ok {
		return b, nil
	}
	b := make([]byte, fs.blockSize)
	if err := fs.dev.Read(blk, b); err != nil {
		return nil, err
	}
	fs.tableCache[blk] = b
	return b, nil
}

// writeTableBlock persists a table block write-through.
func (fs *FS) writeTableBlock(blk int64, b []byte) error {
	fs.tableCache[blk] = b
	return fs.dev.Write(blk, b)
}

var _ vfs.FileSystem = (*FS)(nil)

// Format initializes a fresh file system on dev and returns it mounted.
func Format(dev *disk.Device, clock *sim.Clock, opts Options) (*FS, error) {
	opts.fill()
	bs := dev.BlockSize()
	total := dev.NumBlocks()
	bitmapLen := (total + int64(bs)*8 - 1) / (int64(bs) * 8)
	slotsPerBlock := int64(bs / inodeSlotSize)
	inodeLen := (opts.MaxInodes + slotsPerBlock - 1) / slotsPerBlock
	sb := superblock{
		Magic:       superMagic,
		BlockSize:   uint32(bs),
		TotalBlocks: total,
		BitmapStart: 1,
		BitmapLen:   bitmapLen,
		InodeStart:  1 + bitmapLen,
		InodeLen:    inodeLen,
		DataStart:   1 + bitmapLen + inodeLen,
		MaxInodes:   opts.MaxInodes,
		NextIno:     int64(RootIno) + 1,
	}
	if sb.DataStart >= total {
		return nil, fmt.Errorf("ffs: device too small")
	}
	fs := &FS{
		dev:        dev,
		clock:      clock,
		blockSize:  bs,
		sb:         sb,
		opts:       opts,
		bitmap:     make([]uint64, (total+63)/64),
		inodes:     make(map[Ino]*inode),
		usedSlots:  map[Ino]bool{},
		nextIno:    RootIno + 1,
		cursor:     sb.DataStart,
		tableCache: map[int64][]byte{},
	}
	// Mark the metadata area allocated.
	for b := int64(0); b < sb.DataStart; b++ {
		fs.setBit(b)
	}
	fs.attach()

	root := &inode{Inode: ufs.Inode{Ino: RootIno, Mode: ufs.ModeDir, Nlink: 2, Dirty: true}}
	fs.inodes[RootIno] = root
	fs.usedSlots[RootIno] = true
	if err := fs.WriteDirLocked(root, nil); err != nil {
		return nil, err
	}
	if err := fs.syncLocked(); err != nil {
		return nil, err
	}
	return fs, nil
}

// Mount loads an existing file system.
func Mount(dev *disk.Device, clock *sim.Clock, opts Options) (*FS, error) {
	opts.fill()
	bs := dev.BlockSize()
	buf := make([]byte, bs)
	if err := dev.Read(0, buf); err != nil {
		return nil, err
	}
	sb, err := decodeSuperblock(buf)
	if err != nil {
		return nil, err
	}
	fs := &FS{
		dev:        dev,
		clock:      clock,
		blockSize:  bs,
		sb:         sb,
		opts:       opts,
		bitmap:     make([]uint64, (sb.TotalBlocks+63)/64),
		inodes:     make(map[Ino]*inode),
		usedSlots:  map[Ino]bool{},
		nextIno:    Ino(sb.NextIno),
		cursor:     sb.DataStart,
		tableCache: map[int64][]byte{},
	}
	// Load the bitmap.
	for i := int64(0); i < sb.BitmapLen; i++ {
		if err := dev.Read(sb.BitmapStart+i, buf); err != nil {
			return nil, err
		}
		base := i * int64(bs) / 8
		for w := 0; w < bs/8 && base+int64(w) < int64(len(fs.bitmap)); w++ {
			var v uint64
			for b := 0; b < 8; b++ {
				v |= uint64(buf[w*8+b]) << (8 * b)
			}
			fs.bitmap[base+int64(w)] = v
		}
	}
	// Scan the inode table for used slots (inodes load lazily).
	slotsPerBlock := bs / inodeSlotSize
	for i := int64(0); i < sb.InodeLen; i++ {
		if err := dev.Read(sb.InodeStart+i, buf); err != nil {
			return nil, err
		}
		for s := 0; s < slotsPerBlock; s++ {
			ino := Ino(i*int64(slotsPerBlock)+int64(s)) + 1
			if ino > Ino(sb.MaxInodes) {
				break
			}
			if buf[s*inodeSlotSize] == 1 {
				fs.usedSlots[ino] = true
			}
		}
	}
	fs.attach()
	return fs, nil
}

// attach builds the buffer cache, the stage, the disk queue and the shared
// upper layer over them. The vector is what FFS does its own way: inodes live
// in a fixed table and are written through, blocks are allocated when a write
// first reaches them, and delayed writes age out on a 30-second syncer.
// Directories are padded to whole blocks (see ufs.New).
func (fs *FS) attach() {
	fs.pool = buffer.New(fs.opts.CacheBlocks, fs.blockSize, fs.writeback)
	fs.pool.SetClock(fs.clock)
	fs.stage = ufs.NewStage(stageBlocks, fs.blockSize)
	fs.queue = disk.NewQueue(fs.dev)
	fs.upper = ufs.New(ufs.Ops[*inode]{
		Pool:     fs.pool,
		Clock:    fs.clock,
		Fetch:    fs.fetchBlock,
		Load:     fs.loadInodeLocked,
		Alloc:    fs.allocInodeLocked,
		Drop:     fs.forgetInodeLocked,
		Free:     fs.freeInodeLocked,
		Release:  fs.releaseLocked,
		Update:   fs.storeInodeLocked,
		Reserve:  fs.ensureMapped,
		Truncate: fs.truncateLocked,
		Sync:     fs.syncFileLocked,
		Tick:     fs.tickLocked,
		Durable:  fs.durable,

		InodeAtSync: fs.opts.InodeAtSync,
	}, true)
}

// Name implements vfs.FileSystem.
func (fs *FS) Name() string { return "ffs" }

// BlockSize implements vfs.FileSystem.
func (fs *FS) BlockSize() int { return fs.blockSize }

// Pool exposes the buffer cache (for tests and the transaction layers).
func (fs *FS) Pool() *buffer.Pool { return fs.pool }

// Stats returns a snapshot of the counters.
func (fs *FS) Stats() Stats {
	st := fs.stats
	st.Stage = fs.stage.Stats()
	st.ShortWrites, st.ShortWriteSectors = fs.queue.ShortWrites()
	return st
}

// SetTracer attaches a tracer; sweeps of a full stage then emit
// ffs.stageFlush spans carrying the number of blocks written. A nil tracer
// costs nothing.
func (fs *FS) SetTracer(tr *trace.Tracer) {
	fs.tracer = tr
}

// --- bitmap allocator ---

func (fs *FS) setBit(b int64)   { fs.bitmap[b/64] |= 1 << (uint(b) % 64) }
func (fs *FS) clearBit(b int64) { fs.bitmap[b/64] &^= 1 << (uint(b) % 64) }
func (fs *FS) bit(b int64) bool { return fs.bitmap[b/64]&(1<<(uint(b)%64)) != 0 }

// allocBlock allocates one block, preferring `prefer` (for contiguity) and
// otherwise scanning from the rotating cursor.
func (fs *FS) allocBlock(prefer int64) (int64, error) {
	if prefer >= fs.sb.DataStart && prefer < fs.sb.TotalBlocks && !fs.bit(prefer) {
		fs.setBit(prefer)
		return prefer, nil
	}
	n := fs.sb.TotalBlocks
	for i := int64(0); i < n; i++ {
		b := fs.cursor + i
		if b >= n {
			b = fs.sb.DataStart + (b - n)
		}
		if b < fs.sb.DataStart {
			continue
		}
		if !fs.bit(b) {
			fs.setBit(b)
			fs.cursor = b + 1
			return b, nil
		}
	}
	return 0, ErrNoSpace
}

func (fs *FS) freeBlock(b int64) {
	if b >= fs.sb.DataStart && b < fs.sb.TotalBlocks {
		fs.clearBit(b)
	}
}

// --- buffer cache plumbing ---

// writeback is the buffer pool's dirty-eviction callback. The block is not
// written: it is parked in the stage, fetchBlock serves it from there, and it
// reaches its in-place address with the next flush — the stage's own sweep
// once evictions have filled it, or the syncer, FS.Sync or its file's Sync,
// whichever comes first. The sweep cannot run here: the pool is mid-eviction,
// and the flush walks its dirty set and marks buffers clean.
//
//simlint:noalloc
func (fs *FS) writeback(id buffer.BlockID, data []byte) error {
	fs.stage.Park(id, data, false) // an FFS block is durable only in place
	fs.stats.BlocksStaged++
	return nil
}

// fetchBlock loads a block on cache miss: from the stage if it is parked
// there, else from its in-place address — from the stage too while it is kept
// there, unless the arm sits on the block. The disk charges half a rotation
// to resume a sequential run a cache hit broke, so a scan reading on through
// the file keeps reading. The block leaves the stage: the cache's copy is the
// one that counts now.
func (fs *FS) fetchBlock(id buffer.BlockID, dst []byte) error {
	if fs.stage.ReadParked(id, dst) {
		return nil
	}
	in, err := fs.loadInodeLocked(Ino(id.File))
	if err != nil {
		return err
	}
	addr := in.mapBlock(id.Block)
	if addr == 0 {
		clear(dst)
		return nil
	}
	hit := addr != fs.dev.ArmPosition() && fs.stage.ReadKept(id, dst)
	fs.stage.Unpark(id)
	if hit {
		return nil
	}
	return fs.dev.Read(addr, dst)
}

// durable is ufs.Ops.Durable; an in-place write moves its buffer's hull
// (flushLocked). A clean buffer holds what its address does, unless its bytes
// came from a parked stage copy or the pool skipped the fetch (fresh) of a
// block not known to be zero on disk (zeroLo, zeroHi): then, as for a block
// ensureMapped just allocated, the block goes whole. So does a directory's:
// its padded block must reach the device in one piece (ufs.New), and only a
// block a write covers whole is never torn.
//
//simlint:noalloc
func (fs *FS) durable(in *inode, b *buffer.Buf, fresh bool) []byte {
	lbn := b.ID.Block
	zeroed := lbn >= in.zeroLo && lbn < in.zeroHi
	if zeroed { // the block's zeros are about to change: it leaves the range
		if lbn == in.zeroLo {
			in.zeroLo++
		} else {
			in.zeroHi = lbn
		}
	}
	if b.Dirty() {
		return b.Data
	}
	if _, parked := fs.stage.Lookup(b.ID); parked || in.IsDir() || fresh && !zeroed {
		return nil
	}
	return b.Data
}

// tickLocked runs before every read and write of an open file. It models the
// 30-second update daemon: when the interval has elapsed, push the staged and
// all dirty buffers out through the C-SCAN-sorted queue and then the inodes
// that changed — this is where a modification time becomes durable, since
// File.Sync leaves alone an inode that is merely Dirty. Between passes, a
// stage that evictions have filled is swept into place on its own. No caller
// waits for either, so both run on the device's background lane: idle time
// absorbs them first, and only the residue stalls the transaction whose tick
// started them.
func (fs *FS) tickLocked() error {
	if now := fs.clock.Now(); now-fs.lastSyncer >= fs.opts.SyncInterval {
		fs.lastSyncer = now
		fs.stats.SyncerRuns++
		fs.stage.TakeFull() // the pass empties the stage
		return fs.dev.Background(&fs.stats.WriteBehind, fs.flushAllLocked)
	}
	if !fs.stage.TakeFull() {
		return nil
	}
	span := fs.tracer.Begin("ffs", "ffs.stageFlush")
	var n int
	err := fs.dev.Background(&fs.stats.WriteBehind, func() (err error) {
		n, err = fs.flushLocked(nil, false)
		return err
	})
	fs.stats.StagedFlushes++
	span.End(trace.AI("blocks", int64(n)))
	return err
}

// flushAllLocked pushes every staged and dirty block out through the sorted
// queue and then stores every changed inode, in inode order — the data first,
// so that no slot on the device maps a block whose contents are not there.
func (fs *FS) flushAllLocked() error {
	if _, err := fs.flushLocked(nil, true); err != nil {
		return err
	}
	for _, ino := range detsort.Keys(fs.inodes) {
		if in := fs.inodes[ino]; in.Dirty {
			if err := fs.storeInodeLocked(in); err != nil {
				return err
			}
			fs.stats.SyncerInodeStores++
		}
	}
	return nil
}

// flushLocked writes the staged blocks — and, with cached, the dirty unheld
// buffers — of one file or of all (only nil) in place, in one C-SCAN sweep of
// the disk queue, and returns how many blocks it wrote. A staged block whose
// buffer is dirty and unheld again is superseded by it: the staged copy is
// dropped, and the buffer is written by this flush if cached is set, by a later
// one if not. A dirty buffer whose changed range is empty holds what its
// address does and comes back clean unwritten. Nothing comes back clean or
// leaves the stage until the sweep has succeeded: the queue drops what it has
// not serviced when a write fails, so after an error every block of the flush
// is still dirty or staged and the next flush writes it (again, for those that
// made it). Nothing between Dirty and the sweep calls pool.Get, so the
// unpinned buffers keep their frames.
func (fs *FS) flushLocked(only *Ino, cached bool) (int, error) {
	var dirty []*buffer.Buf
	switch {
	case !cached:
	case only == nil:
		dirty = fs.pool.Dirty()
	default:
		dirty = fs.pool.DirtyFile(vfs.FileID(*only))
	}
	total := 0
	for _, b := range dirty {
		lo, hi := b.Changed.Hull()
		if lo >= hi {
			continue // it holds what its address does
		}
		if err := fs.enqueueLocked(b.ID, b.Data, lo/disk.SectorSize, (hi+disk.SectorSize-1)/disk.SectorSize); err != nil {
			return 0, err
		}
		total++
	}
	var want func(vfs.FileID) bool
	if only != nil {
		want = func(f vfs.FileID) bool { return f == vfs.FileID(*only) }
	}
	staged := fs.stage.Blocks(want)
	n := 0
	for _, id := range staged {
		if b := fs.pool.Lookup(id); b != nil && b.Dirty() && !b.Held() {
			fs.stage.Unpark(id)
			continue
		}
		data, _ := fs.stage.Lookup(id)
		if err := fs.enqueueLocked(id, data, 0, fs.blockSize/disk.SectorSize); err != nil {
			return 0, err
		}
		staged[n] = id
		n++
	}
	staged = staged[:n]
	total += n
	if total > 0 {
		fs.stats.BlocksFlushed += int64(total)
		if err := fs.queue.FlushSorted(); err != nil {
			return 0, err
		}
	}
	for _, b := range dirty {
		fs.pool.MarkClean(b)
		fs.stage.Unpark(b.ID)
	}
	for _, id := range staged {
		if fs.pool.Lookup(id) == nil {
			fs.stage.Keep(id)
		} else {
			fs.stage.Unpark(id)
		}
	}
	return total, nil
}

// enqueueLocked queues a write of block id's bytes to its in-place address,
// of which only the sectors [lo, hi) may differ from what the address holds.
func (fs *FS) enqueueLocked(id buffer.BlockID, data []byte, lo, hi int) error {
	in, err := fs.loadInodeLocked(Ino(id.File))
	if err != nil {
		return err
	}
	addr := in.mapBlock(id.Block)
	if addr == 0 {
		return fmt.Errorf("ffs: dirty unmapped block %v", id)
	}
	fs.queue.EnqueueWrite(addr, data, lo, hi)
	return nil
}

// --- inode table persistence ---

func (fs *FS) inodeTableBlock(ino Ino) (blk int64, slot int) {
	idx := int64(ino - 1)
	spb := int64(fs.blockSize / inodeSlotSize)
	return fs.sb.InodeStart + idx/spb, int(idx % spb)
}

// loadInodeLocked reads an inode (and its overflow extent chain) from disk.
func (fs *FS) loadInodeLocked(ino Ino) (*inode, error) {
	if in, ok := fs.inodes[ino]; ok {
		return in, nil
	}
	if ino < 1 || int64(ino) > fs.sb.MaxInodes {
		return nil, vfs.ErrNotExist
	}
	blk, slot := fs.inodeTableBlock(ino)
	buf, err := fs.readTableBlock(blk)
	if err != nil {
		return nil, err
	}
	in, total, err := decodeSlot(buf[slot*inodeSlotSize:(slot+1)*inodeSlotSize], ino)
	if err != nil {
		return nil, err
	}
	if in == nil {
		return nil, vfs.ErrNotExist
	}
	// Follow the overflow chain, in a buffer of its own: buf is the cached
	// table block.
	if len(in.overflow) > 0 {
		next := in.overflow[0]
		in.overflow = in.overflow[:0]
		ob := make([]byte, fs.blockSize)
		for next != 0 {
			in.overflow = append(in.overflow, next)
			if err := fs.dev.Read(next, ob); err != nil {
				return nil, err
			}
			exts, after, err := decodeOverflow(ob, ino, next, total-len(in.extents))
			if err != nil {
				return nil, err
			}
			in.extents = append(in.extents, exts...)
			next = after
		}
		if len(in.extents) != total {
			return nil, fmt.Errorf("%w: inode %d records %d extents, its overflow chain ends after %d",
				ErrCorrupt, ino, total, len(in.extents))
		}
	}
	fs.inodes[ino] = in
	return in, nil
}

// storeInodeLocked writes an inode slot (and overflow chain) to disk.
func (fs *FS) storeInodeLocked(in *inode) error {
	// Lay out overflow chain for extents beyond the inline dozen.
	rest := []extent(nil)
	if len(in.extents) > inlineExtents {
		rest = in.extents[inlineExtents:]
	}
	capPer := overflowCapacity(fs.blockSize)
	needed := (len(rest) + capPer - 1) / capPer
	for len(in.overflow) < needed {
		b, err := fs.allocBlock(0)
		if err != nil {
			return err
		}
		in.overflow = append(in.overflow, b)
	}
	for len(in.overflow) > needed {
		last := in.overflow[len(in.overflow)-1]
		fs.freeBlock(last)
		in.overflow = in.overflow[:len(in.overflow)-1]
	}
	for i := 0; i < needed; i++ {
		lo := i * capPer
		hi := lo + capPer
		if hi > len(rest) {
			hi = len(rest)
		}
		next := int64(0)
		if i+1 < needed {
			next = in.overflow[i+1]
		}
		if err := fs.dev.Write(in.overflow[i], encodeOverflow(fs.blockSize, next, rest[lo:hi])); err != nil {
			return err
		}
	}
	blk, slot := fs.inodeTableBlock(in.Ino)
	buf, err := fs.readTableBlock(blk)
	if err != nil {
		return err
	}
	copy(buf[slot*inodeSlotSize:], in.encodeSlot())
	if err := fs.writeTableBlock(blk, buf); err != nil {
		return err
	}
	in.Dirty, in.AttrDirty = false, false
	return nil
}

// clearInodeSlotLocked marks an inode slot free on disk.
func (fs *FS) clearInodeSlotLocked(ino Ino) error {
	blk, slot := fs.inodeTableBlock(ino)
	buf, err := fs.readTableBlock(blk)
	if err != nil {
		return err
	}
	for i := 0; i < inodeSlotSize; i++ {
		buf[slot*inodeSlotSize+i] = 0
	}
	return fs.writeTableBlock(blk, buf)
}

// --- Sync ---

// Sync implements vfs.FileSystem: flush data, inodes, bitmap, superblock.
func (fs *FS) Sync() error {
	return fs.syncLocked()
}

func (fs *FS) syncLocked() error {
	if err := fs.flushAllLocked(); err != nil {
		return err
	}
	// Bitmap.
	bs := fs.blockSize
	buf := make([]byte, bs) // one scratch block: the queue copies what it is handed
	for i := int64(0); i < fs.sb.BitmapLen; i++ {
		clear(buf)
		base := i * int64(bs) / 8
		for w := 0; w < bs/8 && base+int64(w) < int64(len(fs.bitmap)); w++ {
			v := fs.bitmap[base+int64(w)]
			for b := 0; b < 8; b++ {
				buf[w*8+b] = byte(v >> (8 * b))
			}
		}
		fs.queue.EnqueueWrite(fs.sb.BitmapStart+i, buf, 0, bs/disk.SectorSize)
	}
	if err := fs.queue.FlushSorted(); err != nil {
		return err
	}
	fs.sb.NextIno = int64(fs.nextIno)
	return fs.dev.Write(0, fs.sb.encode(bs))
}

// allocInodeLocked claims a free inode number and returns its blank inode.
func (fs *FS) allocInodeLocked() (*inode, error) {
	for i := int64(0); i < fs.sb.MaxInodes; i++ {
		ino := fs.nextIno
		fs.nextIno++
		if int64(fs.nextIno) > fs.sb.MaxInodes {
			fs.nextIno = RootIno + 1
		}
		if ino >= 1 && int64(ino) <= fs.sb.MaxInodes && !fs.usedSlots[ino] {
			in := &inode{Inode: ufs.Inode{Ino: ino}}
			fs.usedSlots[ino] = true
			fs.inodes[ino] = in
			return in, nil
		}
	}
	return nil, ErrNoInodes
}

// forgetInodeLocked returns an inode's number to the free pool.
func (fs *FS) forgetInodeLocked(in *inode) {
	delete(fs.inodes, in.Ino)
	delete(fs.usedSlots, in.Ino)
}

// freeInodeLocked marks a removed inode's table slot free on disk.
func (fs *FS) freeInodeLocked(in *inode) error {
	if err := fs.clearInodeSlotLocked(in.Ino); err != nil {
		return err
	}
	fs.forgetInodeLocked(in)
	return nil
}

// releaseLocked drops an inode's cached and staged blocks and frees their
// addresses, so that no stale block lands on an address reallocated later.
func (fs *FS) releaseLocked(in *inode) error {
	if err := fs.pool.InvalidateFile(vfs.FileID(in.Ino)); err != nil {
		return err
	}
	fs.stage.UnparkFile(vfs.FileID(in.Ino))
	fs.freeFileLocked(in)
	return nil
}

// syncFileLocked is File.Sync (the contract is vfs.File's): flush the file's
// staged and dirty blocks, then store its inode if a crash could not otherwise
// rebuild it — the block map or an attribute changed (AttrDirty). An overwrite
// of mapped blocks changes the modification time only and writes no slot; the
// syncer stores that. The data goes first so that the slot never maps a block
// whose contents are not on the device.
func (fs *FS) syncFileLocked(in *inode) error {
	if _, err := fs.flushLocked(&in.Ino, true); err != nil {
		return err
	}
	if !in.AttrDirty {
		return nil
	}
	if err := fs.storeInodeLocked(in); err != nil {
		return err
	}
	fs.stats.SyncInodeStores++
	return nil
}
