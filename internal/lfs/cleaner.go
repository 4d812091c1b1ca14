package lfs

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/buffer"
	"repro/internal/detsort"
	"repro/internal/disk"
	"repro/internal/trace"
)

// CleanerStats reports garbage collection activity.
type CleanerStats struct {
	Runs            int64         `json:"runs"`             // cleaning passes
	SegmentsCleaned int64         `json:"segments_cleaned"` // victims reclaimed
	BlocksCopied    int64         `json:"blocks_copied"`    // live blocks copied forward
	BlocksDead      int64         `json:"blocks_dead"`      // dead blocks simply discarded
	BusyTime        time.Duration `json:"busy"`             // device time attributable to cleaning

	// Idle-overlap accounting, filled by CleanIdle: OverlapTime is cleaner
	// device time absorbed by foreground idle windows, StallTime is the
	// residue that actually delayed the workload
	// (BusyTime = OverlapTime + StallTime for background passes).
	OverlapTime time.Duration `json:"overlap"`
	StallTime   time.Duration `json:"stall"`

	Batches       int64 `json:"batches"`        // batched cleaning passes
	BatchVictims  int64 `json:"batch_victims"`  // victims across all batched passes
	BlocksWritten int64 `json:"blocks_written"` // blocks the cleaner's own flushes logged (incl. summaries/meta)
	SummaryReads  int64 `json:"summary_reads"`  // summary blocks read from disk (summary-cache misses)

	// RetentionSkips is always 0: no snapshot pins a segment, since both
	// transaction managers rebuild old page versions from in-memory
	// before-images (mvcc.DeltaMap). It stays only because the repository
	// benchmark reads it; ROADMAP item 2 drops it.
	RetentionSkips int64 `json:"retention_skips"`
}

// WriteAmplification returns total logged blocks divided by foreground
// (non-cleaner) logged blocks — 1.0 means the cleaner added no writes.
func (s Stats) WriteAmplification() float64 {
	fg := s.BlocksLogged - s.Cleaner.BlocksWritten
	if fg <= 0 {
		return 1
	}
	return float64(s.BlocksLogged) / float64(fg)
}

// The cleaner's set points, in free segments. The flush path cleans
// synchronously when fewer than cleanThreshold segments are free, until
// cleanTarget are. The background pass (CleanIdle) starts one segment
// earlier, at idleTrigger: early enough to keep the synchronous cleaner off
// the critical path, no earlier, since triggering sooner shrinks the in-log
// pool and gives segments less time to die before they are copied. One pass
// reclaims up to cleanBatch victims, whose live blocks are read through one
// C-SCAN sweep of the disk queue.
const (
	cleanThreshold = 4
	cleanTarget    = 8
	cleanBatch     = 4
	idleTrigger    = cleanThreshold + 1
)

// minCleanGain is the minimum number of dead blocks a segment must contain
// to be worth cleaning: copying nearly-full segments costs as much space as
// it frees.
const minCleanGain = 4

// CleanIdle runs one background-priority cleaning pass if the free-segment
// pool has fallen below the idle trigger. Device time is charged to the
// background lane: I/O is absorbed by the idle windows the foreground
// workload left behind, and only the residue stalls it — the paper's §5.4
// "clean in idle periods" design, made incremental so the TPC-B driver can
// call it between transactions. It reports whether any segment was
// reclaimed.
func (fs *FS) CleanIdle() (bool, error) {
	if fs.cleaning || fs.free >= idleTrigger {
		return false, nil
	}
	fs.cleaning = true
	defer func() { fs.cleaning = false }()
	// The override classifies the pass's unabsorbed residue as cleaner time.
	fs.tracer.PushAttr(trace.AttrCleaner)
	defer fs.tracer.PopAttr()
	var bg disk.BgTimes
	var reclaimed bool
	err := disk.InBackground(fs.dev, &bg, func() error {
		// Background passes take only cheap victims: copying a mostly-live
		// segment costs more device time than the idle windows can hide.
		// Expensive segments are left to shed more blocks; the synchronous
		// path remains the backstop if space runs out first.
		victims, err := fs.victimsLocked(fs.sb.SegmentBlocks / 2)
		if err != nil || len(victims) == 0 {
			return err
		}
		fs.stats.Cleaner.Runs++
		freeBefore := fs.free
		err = fs.cleanBatchLocked(victims)
		reclaimed = err == nil && fs.free > freeBefore
		return err
	})
	fs.stats.Cleaner.BusyTime += bg.Busy
	fs.stats.Cleaner.OverlapTime += bg.Overlap
	fs.stats.Cleaner.StallTime += bg.Stall
	return reclaimed, err
}

// cleanLocked brings the free-segment count back to the target. It is
// invoked from the flush path when free segments fall below the threshold —
// the paper's in-kernel cleaner, whose activity stalls the transaction
// workload ("periods of very high transaction throughput are interrupted by
// periods of no transaction throughput", §5.1). The pass is charged in full
// even inside a background flush: whether cleaning hides in idle time is the
// rig's sync|idle choice (CleanIdle), not the flush's.
func (fs *FS) cleanLocked() error {
	fs.cleaning = true
	defer func() { fs.cleaning = false }()
	fs.tracer.PushAttr(trace.AttrCleaner)
	defer fs.tracer.PopAttr()
	prev := fs.dev.SetLane(disk.Foreground)
	defer fs.dev.SetLane(prev)
	busy0 := fs.dev.Stats().BusyTime
	defer func() { fs.stats.Cleaner.BusyTime += fs.dev.Stats().BusyTime - busy0 }()
	fs.stats.Cleaner.Runs++
	for fs.free < cleanTarget {
		victims, err := fs.victimsLocked(fs.sb.SegmentBlocks - minCleanGain)
		if err != nil {
			return err
		}
		freeBefore := fs.free
		if len(victims) > 0 {
			if err := fs.cleanBatchLocked(victims); err != nil {
				return err
			}
		}
		if fs.free <= freeBefore {
			// No victim, or cleaning made no net progress (copying the live
			// blocks consumed as much as it freed): the disk is effectively
			// full of live data.
			if fs.free == 0 {
				return ErrNoSpace
			}
			return nil
		}
	}
	return nil
}

// victimsLocked picks a batch of victims with at most maxLive live blocks
// each. When none qualify only because they were written since the last
// checkpoint — segments in the roll-forward chain — it writes a checkpoint
// to advance the boundary and picks again: the checkpoint-before-reuse
// discipline of real LFS. The checkpoint needs no flush, since the imap
// always describes flushed state.
func (fs *FS) victimsLocked(maxLive int64) ([]int64, error) {
	victims := fs.pickVictimsLocked(maxLive)
	if len(victims) > 0 || !fs.victimsBlockedByCheckpointLocked(maxLive) {
		return victims, nil
	}
	if err := fs.writeCheckpointLocked(); err != nil {
		return nil, err
	}
	return fs.pickVictimsLocked(maxLive), nil
}

// victimsBlockedByCheckpointLocked reports whether cleanable segments (at
// most maxLive live blocks) exist that are excluded only because they were
// written since the last checkpoint.
func (fs *FS) victimsBlockedByCheckpointLocked(maxLive int64) bool {
	if cap := fs.sb.SegmentBlocks - minCleanGain; maxLive > cap {
		maxLive = cap
	}
	for s := int64(0); s < fs.sb.NumSegments; s++ {
		info := fs.segs[s]
		if info.State == segInLog && info.SeqStamp >= fs.cpBound && info.Live <= maxLive {
			return true
		}
	}
	return false
}

// pickVictimsLocked chooses up to cleanBatch victim segments with at most
// maxLive live blocks each, fewest live blocks first, ties to the lower
// segment number. Only checkpointed log segments qualify: segments written
// since the last checkpoint are part of the roll-forward chain and must not
// be recycled. There is no age term (Sprite LFS's cost-benefit): TPC-B
// updates its pages uniformly, so a segment's age does not predict how soon
// its live blocks die (DESIGN.md §8).
func (fs *FS) pickVictimsLocked(maxLive int64) []int64 {
	if cap := fs.sb.SegmentBlocks - minCleanGain; maxLive > cap {
		maxLive = cap // copying nearly-full segments costs as much space as it frees
	}
	var victims []int64
	for s := int64(0); s < fs.sb.NumSegments; s++ {
		info := fs.segs[s]
		if info.State == segInLog && info.SeqStamp < fs.cpBound && info.Live <= maxLive {
			victims = append(victims, s)
		}
	}
	// Segment numbers are appended in ascending order, so a stable sort
	// on live blocks leaves ties in segment order.
	sort.SliceStable(victims, func(i, j int) bool {
		return fs.segs[victims[i]].Live < fs.segs[victims[j]].Live
	})
	if len(victims) > cleanBatch {
		victims = victims[:cleanBatch]
	}
	return victims
}

// victimSummariesLocked returns the partial-segment summaries of a segment:
// from the in-memory summary cache when present, otherwise by walking the
// summary chain on disk (one block per partial — still far cheaper than
// reading the whole segment).
func (fs *FS) victimSummariesLocked(seg int64) ([]summary, error) {
	if sums, ok := fs.sumCache[seg]; ok {
		return sums, nil
	}
	sums, reads, err := fs.readSummariesLocked(seg)
	fs.stats.Cleaner.SummaryReads += reads
	if err != nil {
		return nil, err
	}
	for i := range sums {
		sums[i].Patches = nil
	}
	fs.sumCache[seg] = sums
	return sums, nil
}

// readSummariesLocked walks segment seg's summary chain on disk and returns
// the summaries, patches included, and how many blocks it read.
func (fs *FS) readSummariesLocked(seg int64) ([]summary, int64, error) {
	base := fs.segBase(seg)
	var sums []summary
	var reads int64
	buf := fs.frames.Take()
	defer fs.frames.Give(buf) // decodeSummary copies the entries out; the patches are cloned below
	off := int64(0)
	for off < fs.sb.SegmentBlocks {
		addr := base + off
		if err := fs.dev.Read(addr, buf); err != nil {
			return nil, reads, err
		}
		reads++
		sum, ok := decodeSummary(buf, addr)
		if !ok {
			break
		}
		if len(sums) > 0 && sum.Seq <= sums[len(sums)-1].Seq {
			break // stale summary from a previous life of the segment
		}
		for i := range sum.Patches {
			sum.Patches[i].Data = bytes.Clone(sum.Patches[i].Data)
		}
		sums = append(sums, sum)
		off += 1 + int64(sum.NBlocks)
	}
	return sums, reads, nil
}

// cleanBatchLocked reclaims a ranked batch of victim segments in one pass:
//
//  1. walk every victim's summaries (from the summary cache when possible)
//     and test each entry for liveness — in memory, before any data I/O;
//  2. read only the live data blocks, batched through one C-SCAN sweep of
//     the disk queue, and park them in the stage; meta-data blocks
//     are merely re-dirtied (their in-memory contents are current);
//  3. write every relocated block and the affected meta-data at the log head
//     in one scoped flush;
//  4. verify every victim is fully dead and return it to the free pool.
//
// When the relocation runs out of segments, advanceSegmentLocked's fallback
// (freeDeadSegmentsLocked) may free a victim the relocation has already
// emptied, and the log head may then write into it. Such a victim is
// reclaimed, but no longer this pass's to check or free: step 4 knows it by
// its state or its sequence stamp, which any partial written into it moves.
func (fs *FS) cleanBatchLocked(victims []int64) error {
	span := fs.tracer.Begin("cleaner", "cleaner.pass")
	copied0, dead0 := fs.stats.Cleaner.BlocksCopied, fs.stats.Cleaner.BlocksDead
	fs.stats.Cleaner.Batches++
	fs.stats.Cleaner.BatchVictims += int64(len(victims))
	logged0 := fs.stats.BlocksLogged
	stamps := make([]uint64, len(victims))
	for i, v := range victims {
		stamps[i] = fs.segs[v].SeqStamp
	}

	// 1. Liveness walk over all victims.
	type liveEntry struct {
		e    summaryEntry
		addr int64
	}
	var live []liveEntry
	var packAddrs []int64
	for _, victim := range victims {
		sums, err := fs.victimSummariesLocked(victim)
		if err != nil {
			return err
		}
		base := fs.segBase(victim)
		off := int64(0)
		for _, sum := range sums {
			blockIdx := int64(0)
			for _, e := range sum.Entries {
				if e.Kind == kindDelete {
					continue
				}
				addr := base + off + 1 + blockIdx
				blockIdx++
				isLive, err := fs.entryLiveLocked(e, addr)
				if err != nil {
					return err
				}
				if !isLive {
					fs.stats.Cleaner.BlocksDead++
					continue
				}
				fs.stats.Cleaner.BlocksCopied++
				live = append(live, liveEntry{e, addr})
				if e.Kind == kindInodePack {
					packAddrs = append(packAddrs, addr)
				}
			}
			off += 1 + int64(sum.NBlocks)
		}
	}

	// Reverse-map live pack blocks to the inodes that still live in them
	// (one imap scan for the whole batch; sorted for determinism).
	packInos := make(map[int64][]Ino, len(packAddrs))
	if len(packAddrs) > 0 {
		want := make(map[int64]bool, len(packAddrs))
		for _, a := range packAddrs {
			want[a] = true
		}
		for ino, addr := range fs.imap {
			if want[addr] {
				packInos[addr] = append(packInos[addr], ino)
			}
		}
		for _, inos := range packInos {
			sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
		}
	}

	// 2. Stage relocations. Data blocks whose current bytes exist only on
	// disk are queued as single-block reads; a newer staged or dirty
	// resident version supersedes the victim's copy (preserving the
	// no-overwrite guarantee transaction abort depends on), and a clean
	// resident buffer donates its bytes without any I/O.
	type relocBlock struct {
		id  buffer.BlockID
		buf []byte // non-nil: bytes arrive from the queued disk read
	}
	var relocs []relocBlock
	relocIDs := make(map[buffer.BlockID]bool)
	relocInos := make(map[Ino]bool)
	q := disk.NewQueue(fs.dev)
	for _, le := range live {
		switch le.e.Kind {
		case kindData:
			id := blockIDOf(le.e.Ino, le.e.Index)
			relocIDs[id] = true
			rb := relocBlock{id: id}
			if _, parked := fs.stage.Lookup(id); parked {
				// A newer, not-yet-flushed version is already staged.
			} else if b := fs.pool.Lookup(id); b != nil && b.Dirty() && !b.Held() {
				// A dirty resident buffer supersedes the on-disk copy and
				// will be written by the scoped flush.
			} else if b := fs.pool.Lookup(id); b != nil && !b.Dirty() {
				copy(fs.stage.Frame(id), b.Data)
			} else {
				rb.buf = fs.frames.Take()
				q.EnqueueRead(le.addr, rb.buf)
			}
			relocs = append(relocs, rb)
		case kindInodePack:
			// Re-dirty every inode still living in this pack; the scoped
			// flush writes them into a fresh pack at the log head. The imap
			// already tells us which inodes those are — no pack read needed.
			for _, ino := range packInos[le.addr] {
				in, err := fs.loadInode(ino)
				if err != nil {
					return err
				}
				in.Dirty = true
				relocInos[ino] = true
			}
		case kindInd:
			in, err := fs.loadInode(le.e.Ino)
			if err != nil {
				return err
			}
			p, err := fs.loadInd(in)
			if err != nil {
				return err
			}
			p.dirty = true
			relocInos[le.e.Ino] = true
		case kindDInd:
			in, err := fs.loadInode(le.e.Ino)
			if err != nil {
				return err
			}
			p, err := fs.loadDInd(in)
			if err != nil {
				return err
			}
			p.dirty = true
			relocInos[le.e.Ino] = true
		case kindDChild:
			in, err := fs.loadInode(le.e.Ino)
			if err != nil {
				return err
			}
			p, err := fs.loadDChild(in, le.e.Index)
			if err != nil {
				return err
			}
			p.dirty = true
			relocInos[le.e.Ino] = true
		}
	}
	err := q.FlushSorted()
	for _, rb := range relocs {
		if rb.buf == nil {
			continue
		}
		if err == nil { // else the reads stopped short: park nothing
			// A held block's durable image is its logged copy with the
			// patches since laid over it.
			dst := fs.stage.Frame(rb.id)
			copy(dst, rb.buf)
			fs.layPatchesLocked(rb.id, dst)
		}
		fs.frames.Give(rb.buf)
	}
	if err != nil {
		return err
	}

	// 3. Relocate.
	if err := fs.flushRelocLocked(relocIDs, relocInos); err != nil {
		return err
	}

	// 4. Verify and free.
	for i, victim := range victims {
		if recycled := fs.segs[victim].State != segInLog || fs.segs[victim].SeqStamp != stamps[i]; !recycled {
			if fs.segs[victim].Live != 0 {
				return fs.cleanFailureLocked(victim)
			}
			fs.segs[victim].State = segFree
			delete(fs.sumCache, victim)
			fs.free++
		}
		fs.stats.Cleaner.SegmentsCleaned++
	}
	fs.stats.Cleaner.BlocksWritten += fs.stats.BlocksLogged - logged0
	if fs.tracer.Enabled() {
		span.End(trace.AI("victims", int64(len(victims))),
			trace.AI("copied", fs.stats.Cleaner.BlocksCopied-copied0),
			trace.AI("dead", fs.stats.Cleaner.BlocksDead-dead0))
		fs.tracer.Count("cleaner.passes", 1)
		fs.tracer.Count("cleaner.victims", int64(len(victims)))
	}
	return nil
}

// cleanFailureLocked builds the diagnostic for the invariant violation of a
// victim keeping live blocks after its relocation flush.
func (fs *FS) cleanFailureLocked(victim int64) error {
	var kinds [6]int
	sums, err := fs.victimSummariesLocked(victim)
	if err == nil {
		base := fs.segBase(victim)
		off := int64(0)
		for _, sum := range sums {
			blockIdx := int64(0)
			for _, e := range sum.Entries {
				if e.Kind == kindDelete {
					continue
				}
				addr := base + off + 1 + blockIdx
				blockIdx++
				if isLive, _ := fs.entryLiveLocked(e, addr); isLive {
					kinds[e.Kind]++
				}
			}
			off += 1 + int64(sum.NBlocks)
		}
	}
	// Cross-walk: which addresses in the victim does the imap still
	// reference?
	type ref struct {
		Ino  Ino
		Kind blockKind
		Idx  int64
		Addr int64
	}
	var refs []ref
	for _, ino := range detsort.Keys(fs.imap) {
		if fs.segOf(fs.imap[ino]) == victim {
			refs = append(refs, ref{ino, kindInodePack, 0, fs.imap[ino]})
		}
		in, e := fs.loadInode(ino)
		if e != nil {
			continue
		}
		fs.forEachBlock(in, func(kind blockKind, index, a int64) error {
			if fs.segOf(a) == victim {
				refs = append(refs, ref{ino, kind, index, a})
			}
			return nil
		})
	}
	if len(refs) > 8 {
		refs = refs[:8]
	}
	return fmt.Errorf("lfs: segment %d still has %d live blocks after cleaning (%d summaries walked; live kinds data=%d pack=%d ind=%d dind=%d dchild=%d; refs=%+v)",
		victim, fs.segs[victim].Live, len(sums), kinds[kindData], kinds[kindInodePack], kinds[kindInd], kinds[kindDInd], kinds[kindDChild], refs)
}

// entryLiveLocked reports whether a summary entry's block at addr is still
// the current version.
func (fs *FS) entryLiveLocked(e summaryEntry, addr int64) (bool, error) {
	if e.Kind == kindInodePack {
		// A pack block is live while any imap entry still points at it.
		return fs.packRefs[addr] > 0, nil
	}
	cur, ok := fs.imap[e.Ino]
	if !ok {
		return false, nil // file deleted
	}
	_ = cur
	in, err := fs.loadInode(e.Ino)
	if err != nil {
		return false, err
	}
	switch e.Kind {
	case kindData:
		a, err := fs.blockAddr(in, e.Index)
		if err != nil {
			return false, err
		}
		return a == addr, nil
	case kindInd:
		return in.indAddr == addr, nil
	case kindDInd:
		return in.dindAddr == addr, nil
	case kindDChild:
		if in.dindAddr == 0 && in.dind == nil {
			return false, nil
		}
		dind, err := fs.loadDInd(in)
		if err != nil {
			return false, err
		}
		if e.Index < 0 || e.Index >= int64(len(dind.ptrs)) {
			return false, nil
		}
		return dind.ptrs[e.Index] == addr, nil
	default:
		return false, nil
	}
}
