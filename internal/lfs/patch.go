package lfs

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"repro/internal/buffer"
	"repro/internal/detsort"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// A summary-only commit force (DESIGN.md §8). When a commit force — File.Sync,
// or the embedded transaction manager's FlushCommit — finds that the blocks
// it must make durable differ from their durable bytes only in ranges that
// fit the free space of a summary block, it writes that block: a partial
// segment of no data blocks whose patch records carry the ranges. The blocks
// stay dirty in the cache until write-behind, a full flush, the cleaner or a
// checkpoint logs them whole; roll-forward lays the patches over each block's
// last logged copy. A checkpoint logs every block whose newest bytes exist
// only in patches before it moves the roll-forward start past them.
//
// The patches are the spans of the blocks' records of changed bytes
// (buffer.Changed, durable): a WAL append or a TPC-B transaction changes a few
// hundred bytes of the blocks it rewrites.

// durable is ufs.Ops.Durable. Only writes to a file File.Sync has forced
// (inode.forced) or that is transaction-protected are measured; any other
// leaves its buffer's record unknown. A clean buffer is measured against its
// bytes as fetched or, parked durable (writeback), the stage copy; against
// nothing when the stage holds an undurable copy, or the pool skipped the
// fetch (fresh) of a block that is no hole.
//
//simlint:noalloc
func (fs *FS) durable(in *inode, b *buffer.Buf, fresh bool) []byte {
	if !in.forced && !in.TxnProtected() {
		return nil
	}
	if b.Dirty() {
		return b.Data
	}
	switch staged, parked := fs.stage.Lookup(b.ID); {
	case parked && fs.stage.Durable(b.ID):
		return staged
	case parked || fresh && !fs.knownHoleLocked(in, b.ID):
		return nil
	}
	return b.Data
}

// rediffLocked re-bases dirty buffer b, whose block was just made durable as
// logged: its record becomes their diff, if its file's writes are measured.
func (fs *FS) rediffLocked(b *buffer.Buf, logged []byte) {
	if in := fs.inodes[Ino(b.ID.File)]; !in.forced && !in.TxnProtected() {
		logged = nil
	}
	b.Changed = buffer.Changed{}
	b.Note(logged, 0, b.Data, fs.room)
}

// knownHoleLocked reports whether block id is a hole, as far as the inode
// and its single indirect block tell without a read: a block at or past the
// size (ufs raises it after a write's last block) is one, unless a truncate's
// cleared pointers are not logged yet; below it, a block in the
// double-indirect range counts as no hole. Mount loads every inode's single
// indirect block and nothing unloads one (TestMountLoadsEveryIndirectBlock),
// so an inode without one has never logged one: every block in its range is
// a hole. (A hole with bytes in patches is dirty or staged, so durable
// never asks.)
func (fs *FS) knownHoleLocked(in *inode, id buffer.BlockID) bool {
	switch lbn := id.Block; {
	case in.ptrsCleared:
		return false
	case lbn*int64(fs.blockSize) >= in.Size:
		return true
	case lbn < NDirect:
		return in.direct[lbn] == 0
	case lbn >= NDirect+nptr(fs.blockSize):
		return false
	default:
		return in.ind == nil || in.ind.ptrs[lbn-NDirect] == 0
	}
}

// Patched reports whether block id's newest durable bytes are in summary
// patches only. Its buffer must stay dirty until a flush logs it whole: the
// block's logged copy lacks those bytes.
func (fs *FS) Patched(id buffer.BlockID) bool {
	_, ok := fs.patched[id]
	return ok
}

// summaryForce is what a summary-only commit force writes: patch records in
// block order, the files whose inodes or cleared pointers it logs, and the
// pages the patches were built from.
type summaryForce struct {
	patches []patch
	files   []Ino
	pages   []CommitPage
}

// planForceLocked returns the summary-only force of the files in set. A page's
// patches take their bytes from its Image, else from its resident buffer.
//
// File.Sync (commit nil) forces every dirty block of its file, and only a file
// that needs no inode pack, has no pointers a truncate cleared, whose staged
// blocks are all durable (writeback) and whose changed ranges are known and
// fit one summary beside the pending deletion records; else planning returns
// the FullForceCauses counter of what refused.
//
// A group-commit batch (FlushCommit) is never refused. It forces exactly its
// pages, one with unknown ranges as patches covering its whole committed image,
// which roll-forward lays over any base, and the inodes and cleared pointer
// blocks of its files. Their other dirty and staged blocks carry no committed
// byte that is not durable already.
func (fs *FS) planForceLocked(set map[Ino]bool, commit []CommitPage) (summaryForce, *int64, error) {
	causes := &fs.stats.FullForceCauses
	f := summaryForce{pages: commit}
	for _, ino := range detsort.Keys(set) {
		in, err := fs.loadInode(ino)
		if err != nil {
			return summaryForce{}, nil, err
		}
		switch {
		case commit != nil:
			if in.ptrsCleared || fs.packsLocked(in, true) {
				f.files = append(f.files, ino)
			}
			continue
		case in.ptrsCleared:
			return summaryForce{}, &causes.PtrsCleared, nil
		case fs.packsLocked(in, true):
			return summaryForce{}, &causes.InodePack, nil
		}
		file := vfs.FileID(ino)
		for _, id := range fs.stage.Blocks(func(g buffer.FileID) bool { return g == file }) {
			if !fs.stage.Durable(id) {
				return summaryForce{}, &causes.StagedUndurable, nil
			}
		}
		for _, b := range fs.pool.DirtyFile(file) {
			f.pages = append(f.pages, CommitPage{ID: b.ID})
		}
	}
	room := patchRoom(fs.blockSize, len(fs.pendingDel))
	size := 0
	for _, cp := range f.pages {
		b := fs.pool.Lookup(cp.ID)
		spans, n, known := []buffer.Span(nil), 0, false
		if b != nil {
			spans, n, known = b.Changed.Spans()
		}
		if commit == nil {
			if !known {
				return summaryForce{}, &causes.NoDelta, nil
			}
			if size += n; size > room {
				return summaryForce{}, &causes.SummaryRoom, nil
			}
		}
		data := cp.Image
		switch {
		case data != nil:
		case b == nil:
			return summaryForce{}, nil, fmt.Errorf("lfs: commit page %v is not resident", cp.ID)
		case !b.Dirty():
			continue // its last logged copy
		default:
			data = b.Data
		}
		if !known {
			f.patches = append(f.patches, patch{Ino: Ino(cp.ID.File), LBN: cp.ID.Block, Data: data})
			continue
		}
		for _, r := range spans {
			f.patches = append(f.patches, patch{Ino: Ino(cp.ID.File), LBN: cp.ID.Block, Off: int(r.Lo), Data: data[r.Lo:r.Hi]})
		}
	}
	slices.SortFunc(f.patches, func(a, b patch) int {
		return cmp.Or(cmp.Compare(a.Ino, b.Ino), cmp.Compare(a.LBN, b.LBN), cmp.Compare(a.Off, b.Off))
	})
	return f, nil, nil
}

// syncLocked is ufs.Ops.Sync, File.Sync's force.
func (fs *FS) syncLocked(in *inode) error {
	in.forced = true
	return fs.forceLocked(map[Ino]bool{in.Ino: true}, nil)
}

// forceLocked is a commit force of the files in set — File.Sync's, or a
// group-commit batch's (commit, see FlushCommit): a summary-only force when
// planForceLocked allows one, else File.Sync's flush of the file whole.
func (fs *FS) forceLocked(set map[Ino]bool, commit []CommitPage) error {
	f, refused, err := fs.planForceLocked(set, commit)
	if err == nil && refused == nil && !fs.cleaning && fs.free < cleanThreshold {
		// The cleaner may log some of the blocks whole.
		if err = fs.cleanLocked(); err == nil {
			f, refused, err = fs.planForceLocked(set, commit)
		}
	}
	if err != nil {
		return err
	}
	if refused != nil {
		span := fs.tracer.Begin("lfs", "lfs.fullForce")
		partials, logged := fs.stats.PartialSegments, fs.stats.BlocksLogged
		err := fs.flushLocked(set, true)
		if fs.stats.PartialSegments > partials {
			*refused++
		}
		span.End(trace.AI("blocks", fs.stats.BlocksLogged-logged))
		return err
	}
	if len(f.patches) == 0 && len(f.files) == 0 && len(fs.pendingDel) == 0 {
		return nil // every change is durable already
	}
	if err := fs.writeSummaryChainLocked(f.files, f.patches); err != nil {
		return err
	}
	fs.stats.SummaryOnlyForces++
	for _, p := range f.patches {
		fs.stats.PatchBytes += int64(len(p.Data))
		fs.keepPatchLocked(p)
	}
	checkpoint := fs.seq-fs.cpBound >= uint64(fs.opts.CheckpointEvery)
	for _, cp := range f.pages {
		b := fs.pool.Lookup(cp.ID)
		data := cp.Image
		if data == nil {
			data = b.Data
		}
		// The page's durable image is now data, which a buffer differs from
		// by its diff; one patched from an Image keeps a known record's
		// spans, which still cover its running writer's bytes.
		if b != nil && b.Dirty() {
			if _, _, known := b.Changed.Spans(); cp.Image == nil || !known {
				fs.rediffLocked(b, data)
			}
		}
		// A staged copy stays the page's durable image: a flush or the
		// cleaner may log it whole in place of the patches. A page not
		// resident, and a batch's patched pages at a checkpoint, are logged
		// from their committed images, staged.
		_, parked := fs.stage.Lookup(cp.ID)
		if parked {
			fs.stats.StagedPatched++
		}
		if parked || b == nil || checkpoint && commit != nil && fs.Patched(cp.ID) {
			copy(fs.stage.Frame(cp.ID, true), data)
		}
	}
	if !checkpoint {
		return nil
	}
	return fs.writeCheckpointLocked()
}

// writeSummaryChainLocked writes a summary-only force: the inodes and cleared
// pointer blocks of files, then patches, split where a summary fills, in as
// few partial segments as their summaries hold. Every partial but the last
// carries sumFlagCont, so roll-forward applies the force whole or not at all.
// The chain triggers no cleaning, which could log a block whole from bytes
// older than the chain's patches of it; its segment advances may dig into the
// reserve cleanThreshold maintains.
func (fs *FS) writeSummaryChainLocked(files []Ino, patches []patch) error {
	defer func() { fs.chainCont = false }()
	done := 0 // bytes of patches[0] an earlier partial carried
	for {
		_, nf, blocks, err := fs.chunkLen(nil, files, true, fs.partialBudget())
		if err != nil {
			return err
		}
		chunk := files[:nf]
		files = files[nf:]
		room := patchRoom(fs.blockSize, blocks-1) // an entry per block after the summary
		var these []patch
		for len(patches) > 0 && room > patchHeaderSize {
			p := patches[0]
			n := min(len(p.Data)-done, room-patchHeaderSize)
			these = append(these, patch{Ino: p.Ino, LBN: p.LBN, Off: p.Off + done, Data: p.Data[done : done+n]})
			room -= patchHeaderSize + n
			if done += n; done == len(p.Data) {
				patches, done = patches[1:], 0
			}
		}
		fs.chainCont = len(files) > 0 || len(patches) > 0
		if err := fs.writePartialLocked(nil, chunk, true, these); err != nil {
			return err
		}
		if !fs.chainCont {
			return nil
		}
	}
}

// keepPatchLocked keeps a copy of p, just logged, until its block is logged
// whole, dropping the block's older patches that p covers: a held block's
// durable image is its last logged copy with them laid over it
// (layPatchesLocked).
func (fs *FS) keepPatchLocked(p patch) {
	id := blockIDOf(p.Ino, p.LBN)
	kept := slices.DeleteFunc(fs.patched[id], func(q patch) bool {
		return p.Off <= q.Off && q.Off+len(q.Data) <= p.Off+len(p.Data)
	})
	p.Data = bytes.Clone(p.Data)
	fs.patched[id] = append(kept, p)
}

// layPatchesLocked lays the patches kept for block id, oldest first, over
// dst, the block's last logged copy — roll-forward's rule — making dst the
// block's durable image.
func (fs *FS) layPatchesLocked(id buffer.BlockID, dst []byte) {
	for _, p := range fs.patched[id] {
		copy(dst[p.Off:], p.Data)
	}
}

// logPatchedLocked logs whole every block whose newest durable bytes exist
// only in patches — the checkpoint's duty before it moves the roll-forward
// start past them. Each such block is dirty in the cache or staged. A held
// one carries a running transaction's bytes, so its durable image is staged
// and logged instead.
func (fs *FS) logPatchedLocked() error {
	ids := make(map[buffer.BlockID]bool, len(fs.patched))
	for _, id := range detsort.KeysFunc(fs.patched, buffer.CompareBlockID) {
		ids[id] = true
		b := fs.pool.Lookup(id)
		if _, parked := fs.stage.Lookup(id); parked || b == nil || !b.Held() {
			continue
		}
		in, err := fs.loadInode(Ino(id.File))
		if err != nil {
			return err
		}
		img := fs.stage.Frame(id, true)
		if err := fs.readLoggedLocked(in, id.Block, img); err != nil {
			return err
		}
		fs.layPatchesLocked(id, img)
	}
	if err := fs.flushRelocLocked(ids, nil); err != nil {
		return err
	}
	if len(fs.patched) > 0 {
		id := detsort.KeysFunc(fs.patched, buffer.CompareBlockID)[0]
		return fmt.Errorf("lfs: internal error: block %v's patches have no cached copy to log", id)
	}
	return nil
}
