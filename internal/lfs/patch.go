package lfs

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"math/bits"
	"slices"

	"repro/internal/buffer"
	"repro/internal/detsort"
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
// The file system learns which bytes changed by comparing each write with the
// cached bytes it replaces (noteWrite): a write-ahead log rewrites its whole
// tail block to append a few hundred bytes, and only the header and the new
// payload differ; a TPC-B transaction changes three balance records and
// appends one history record.

// span is a byte range [lo, hi) of a block.
type span struct{ lo, hi int }

// maxSpans bounds the ranges a delta keeps; a range that would be one more
// is joined to its nearer neighbour, the bytes between them included. Six
// keep a delta within the 128 bytes a map stores in place.
const maxSpans = 6

// delta is what a dirty block changed since its bytes were last durable,
// while that is known: the byte ranges, sorted and disjoint, and the bytes
// their patch records would take. buf is the buffer the ranges describe; a
// block evicted and fetched again is another buffer, and no delta.
type delta struct {
	buf   *buffer.Buf
	spans [maxSpans]span
	n     int
	size  int
}

// ranges returns the tracked ranges.
func (d *delta) ranges() []span { return d.spans[:d.n] }

// add merges [lo, hi) into the ranges; ranges closer than a patch header
// join, since a second record would cost more than the bytes between them.
// Bytes a range covers that the writes did not change still hold their
// durable values, so a patch may carry them. add reports whether the
// patches still fit room.
func (d *delta) add(lo, hi, room int) bool {
	i := 0
	for i < d.n && d.spans[i].hi+patchHeaderSize <= lo {
		i++
	}
	j := i
	for j < d.n && d.spans[j].lo <= hi+patchHeaderSize {
		j++
	}
	if i == j && d.n == maxSpans {
		if j == d.n || i > 0 && lo-d.spans[i-1].hi <= d.spans[j].lo-hi {
			i--
		} else {
			j++
		}
	}
	// [lo, hi) and spans i..j-1 become one span in slot i.
	for _, r := range d.spans[i:j] {
		lo, hi = min(lo, r.lo), max(hi, r.hi)
		d.size -= patchHeaderSize + r.hi - r.lo
	}
	copy(d.spans[i+1:], d.spans[j:d.n])
	d.n += 1 - (j - i)
	d.spans[i] = span{lo, hi}
	d.size += patchHeaderSize + hi - lo
	return d.size <= room
}

// diff adds to d the ranges where old and new differ, new being written at
// offset off of the block, a word at a time. It stops, reporting false, once
// the patches outgrow room.
func (d *delta) diff(old, new []byte, off, room int) bool {
	if bytes.Equal(old, new) {
		return true
	}
	le := binary.LittleEndian
	n := len(new)
	for i := 0; i < n; {
		for i+8 <= n {
			if x := le.Uint64(old[i:]) ^ le.Uint64(new[i:]); x != 0 {
				i += bits.TrailingZeros64(x) / 8
				break
			}
			i += 8
		}
		for i < n && old[i] == new[i] {
			i++
		}
		if i == n {
			break
		}
		// The run ends at its last differing byte before patchHeaderSize
		// equal ones.
		lo, hi := i, i+1
		for j := hi; j < n && j-hi < patchHeaderSize; {
			if j+8 <= n {
				if x := le.Uint64(old[j:]) ^ le.Uint64(new[j:]); x != 0 {
					hi = j + 8 - bits.LeadingZeros64(x)/8
				}
				j += 8
			} else {
				if old[j] != new[j] {
					hi = j + 1
				}
				j++
			}
			if hi-lo+patchHeaderSize > room {
				return false
			}
		}
		if !d.add(off+lo, off+hi, room) {
			return false
		}
		i = hi
	}
	return true
}

// noteWrite is ufs.Ops.Note: p is about to be copied into b at off. Only the
// writes to a file File.Sync has forced (inode.forced) or that is
// transaction-protected are measured: a protected file's first commit after
// its load may then be a summary-only force too. A clean
// buffer holds the block's durable bytes — unless the stage has a newer
// copy, or the pool skipped the fetch (fresh) for a block that is no hole —
// so its delta starts empty; a dirty buffer's delta grows by what p changes.
// A dirty block with no delta changed in ways nobody measured, and stays so
// until it is logged whole.
//
//simlint:noalloc
func (fs *FS) noteWrite(in *inode, b *buffer.Buf, off int, p []byte, fresh bool) {
	if !in.forced && !in.TxnProtected() {
		return
	}
	d, ok := fs.deltas[b.ID]
	switch {
	case !b.Dirty():
		if _, parked := fs.stage.Lookup(b.ID); parked || fresh && !fs.knownHoleLocked(in, b.ID) {
			delete(fs.deltas, b.ID)
			return
		}
		d = delta{buf: b}
	case !ok || d.buf != b:
		delete(fs.deltas, b.ID)
		return
	}
	if !d.diff(b.Data[off:off+len(p)], p, off, patchRoom(fs.blockSize, 0)) {
		delete(fs.deltas, b.ID)
		return
	}
	//simlint:alloc(the map grows to the dirty blocks a commit force could patch; a write that overflows a summary adds none)
	fs.deltas[b.ID] = d
}

// knownHoleLocked reports whether block id is a hole, as far as the inode
// and its single indirect block tell without a read: a block behind an
// unloaded pointer block, or in the double-indirect range (past 2 MB of
// file), counts as no hole. (A hole with bytes in patches is dirty or
// staged, so noteWrite never asks about one.)
func (fs *FS) knownHoleLocked(in *inode, id buffer.BlockID) bool {
	switch lbn := id.Block; {
	case lbn < NDirect:
		return in.direct[lbn] == 0
	case lbn >= NDirect+nptr(fs.blockSize):
		return false
	case in.ind != nil:
		return in.ind.ptrs[lbn-NDirect] == 0
	default:
		return in.indAddr == 0
	}
}

// forgetDeltasLocked drops what is known of a file's changed ranges and
// patched blocks: the file system is freeing its blocks.
func (fs *FS) forgetDeltasLocked(ino Ino) {
	file := vfs.FileID(ino)
	maps.DeleteFunc(fs.deltas, func(id buffer.BlockID, _ delta) bool { return id.File == file })
	maps.DeleteFunc(fs.patched, func(id buffer.BlockID, _ []patch) bool { return id.File == file })
}

// Patched reports whether block id's newest durable bytes are in summary
// patches only. Its buffer must stay dirty until a flush logs it whole: the
// block's logged copy lacks those bytes.
func (fs *FS) Patched(id buffer.BlockID) bool {
	_, ok := fs.patched[id]
	return ok
}

// summaryForce is what a summary-only commit force writes: patch records in
// block order, the files whose inodes it packs, and the pages the patches
// were built from.
type summaryForce struct {
	patches []patch
	packed  []Ino
	pages   []CommitPage
}

// planForceLocked returns the summary-only force of the files in set, and
// whether the force can be one: no file had pointers cleared by a truncate,
// and every page's changed ranges are known and fit one summary beside the
// pending deletion records and the inode-pack entries. A page's patches take
// their bytes from its Image, else from its resident buffer.
//
// File.Sync (commit nil) forces every dirty block of its file, and only a
// file that needs no inode pack and has no block waiting in the stage. A
// group-commit batch (FlushCommit) forces exactly its pages, and packs the
// inodes whose attributes changed; its files' other dirty and staged blocks
// carry no committed byte that is not durable already, and wait for
// write-behind.
func (fs *FS) planForceLocked(set map[Ino]bool, commit []CommitPage) (summaryForce, bool) {
	f := summaryForce{pages: commit}
	for _, ino := range detsort.Keys(set) {
		in, err := fs.loadInode(ino)
		if err != nil || in.ptrsCleared {
			return summaryForce{}, false
		}
		if fs.packsLocked(in, true) {
			f.packed = append(f.packed, ino)
		}
		if commit != nil {
			continue
		}
		file := vfs.FileID(ino)
		if len(f.packed) > 0 || len(fs.stage.Blocks(func(g buffer.FileID) bool { return g == file })) > 0 {
			return summaryForce{}, false
		}
		for _, b := range fs.pool.DirtyFile(file) {
			f.pages = append(f.pages, CommitPage{ID: b.ID})
		}
	}
	packCap := maxInodesPerPack(fs.blockSize)
	room := patchRoom(fs.blockSize, len(fs.pendingDel)+(len(f.packed)+packCap-1)/packCap)
	size := 0
	for _, cp := range f.pages {
		b := fs.pool.Lookup(cp.ID)
		d, ok := fs.deltas[cp.ID]
		if b == nil || !ok || d.buf != b {
			return summaryForce{}, false
		}
		if size += d.size; size > room {
			return summaryForce{}, false
		}
		data := cp.Image
		if data == nil {
			data = b.Data
		}
		for _, r := range d.ranges() {
			f.patches = append(f.patches, patch{Ino: Ino(cp.ID.File), LBN: cp.ID.Block, Off: r.lo, Data: data[r.lo:r.hi]})
		}
	}
	slices.SortFunc(f.patches, func(a, b patch) int {
		return cmp.Or(cmp.Compare(a.Ino, b.Ino), cmp.Compare(a.LBN, b.LBN), cmp.Compare(a.Off, b.Off))
	})
	return f, true
}

// syncLocked is ufs.Ops.Sync, File.Sync's force.
func (fs *FS) syncLocked(in *inode) error {
	in.forced = true
	return fs.forceLocked(map[Ino]bool{in.Ino: true}, nil)
}

// forceLocked is a commit force of the files in set — File.Sync's, or a
// group-commit batch's (commit, see FlushCommit): a summary-only partial when
// planForceLocked allows one, else the commit-force flush of the files.
func (fs *FS) forceLocked(set map[Ino]bool, commit []CommitPage) error {
	f, ok := fs.planForceLocked(set, commit)
	if ok && !fs.cleaning && fs.free < cleanThreshold {
		// The cleaner may log some of the blocks whole.
		if err := fs.cleanLocked(); err != nil {
			return err
		}
		f, ok = fs.planForceLocked(set, commit)
	}
	if !ok {
		partials := fs.stats.PartialSegments
		err := fs.flushLocked(set, true, commit)
		if fs.stats.PartialSegments > partials {
			fs.stats.FullForces++
		}
		return err
	}
	if len(f.patches) == 0 && len(f.packed) == 0 && len(fs.pendingDel) == 0 {
		return nil // every change is durable already
	}
	if err := fs.writePartialLocked(nil, f.packed, true, f.patches); err != nil {
		return err
	}
	fs.stats.SummaryOnlyForces++
	for _, p := range f.patches {
		fs.stats.PatchBytes += int64(len(p.Data))
		fs.keepPatchLocked(p)
	}
	for _, cp := range f.pages {
		if cp.Image == nil {
			// The buffer is what the log now holds. A page logged from an
			// Image keeps its ranges: they still cover its running writer's
			// bytes.
			fs.deltas[cp.ID] = delta{buf: fs.deltas[cp.ID].buf}
		}
	}
	if fs.seq-fs.cpBound < uint64(fs.opts.CheckpointEvery) {
		return nil
	}
	// The batch's committed images are its pages' durable images: the
	// checkpoint logs the patched ones from the stage.
	for _, cp := range commit {
		if !fs.Patched(cp.ID) {
			continue
		}
		data := cp.Image
		if data == nil {
			data = fs.pool.Lookup(cp.ID).Data
		}
		copy(fs.stage.Frame(cp.ID), data)
	}
	return fs.writeCheckpointLocked()
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
	if len(fs.patched) == 0 {
		return nil
	}
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
		img := fs.stage.Frame(id)
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
