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

// A summary-only commit force (DESIGN.md §8). When File.Sync finds that a
// file's dirty blocks differ from their durable bytes only in ranges that fit
// the free space of a summary block, it writes that one block: a partial
// segment of no blocks whose patch records carry the ranges. The blocks stay
// dirty in the cache until write-behind, a full flush or a checkpoint logs
// them whole; roll-forward lays the patches over each block's last logged
// copy. A checkpoint logs every block whose newest bytes exist only in
// patches before it moves the roll-forward start past them.
//
// The file system learns which bytes changed by comparing each write with the
// cached bytes it replaces (noteWrite): a write-ahead log rewrites its whole
// tail block to append a few hundred bytes, and only the header and the new
// payload differ.

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
// writes to a file File.Sync has forced are measured (inode.forced). A clean
// buffer holds the block's durable bytes — unless the stage has a newer
// copy, or the pool skipped the fetch (fresh) for a block that is no hole —
// so its delta starts empty; a dirty buffer's delta grows by what p changes.
// A dirty block with no delta changed in ways nobody measured, and stays so
// until it is logged whole.
//
//simlint:noalloc
func (fs *FS) noteWrite(in *inode, b *buffer.Buf, off int, p []byte, fresh bool) {
	if !in.forced {
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
	//simlint:alloc(the map grows to the dirty blocks a File.Sync could patch; a write that overflows a summary adds none)
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
	maps.DeleteFunc(fs.patched, func(id buffer.BlockID, _ bool) bool { return id.File == file })
}

// patchesLocked returns the patch records that make a File.Sync of in a
// summary-only force, in block order, and whether the force can be one: the
// file is no transaction-protected file (the embedded transaction manager
// writes its buffers directly), the force packs no inode and writes no
// pointer block, none of its blocks waits in the stage, and every dirty
// block's changed ranges are known and fit one summary beside the pending
// deletion records.
func (fs *FS) patchesLocked(in *inode) ([]patch, bool) {
	if in.TxnProtected() || in.ptrsCleared || fs.packsLocked(in, true) {
		return nil, false
	}
	file := vfs.FileID(in.Ino)
	if len(fs.stage.Blocks(func(f buffer.FileID) bool { return f == file })) > 0 {
		return nil, false
	}
	room := patchRoom(fs.blockSize, len(fs.pendingDel))
	var patches []patch
	size := 0
	for _, b := range fs.pool.DirtyFile(file) {
		d, ok := fs.deltas[b.ID]
		if !ok || d.buf != b {
			return nil, false
		}
		if size += d.size; size > room {
			return nil, false
		}
		for _, r := range d.ranges() {
			patches = append(patches, patch{Ino: in.Ino, LBN: b.ID.Block, Off: r.lo, Data: b.Data[r.lo:r.hi]})
		}
	}
	slices.SortFunc(patches, func(a, b patch) int {
		return cmp.Or(cmp.Compare(a.LBN, b.LBN), cmp.Compare(a.Off, b.Off))
	})
	return patches, true
}

// syncLocked is ufs.Ops.Sync, File.Sync's force: a summary-only partial when
// patchesLocked allows one, else the commit-force flush of the file.
func (fs *FS) syncLocked(in *inode) error {
	in.forced = true
	patches, ok := fs.patchesLocked(in)
	if ok && !fs.cleaning && fs.free < cleanThreshold {
		// The cleaner may log some of the blocks whole.
		if err := fs.cleanLocked(); err != nil {
			return err
		}
		patches, ok = fs.patchesLocked(in)
	}
	if !ok {
		partials := fs.stats.PartialSegments
		err := fs.flushLocked(map[Ino]bool{in.Ino: true}, true, nil)
		if fs.stats.PartialSegments > partials {
			fs.stats.FullForces++
		}
		return err
	}
	if len(patches) == 0 && len(fs.pendingDel) == 0 {
		return nil // every change is durable already
	}
	if err := fs.writePartialLocked(nil, nil, true, patches); err != nil {
		return err
	}
	fs.stats.SummaryOnlyForces++
	for _, p := range patches {
		fs.stats.PatchBytes += int64(len(p.Data))
		id := blockIDOf(p.Ino, p.LBN)
		fs.patched[id] = true
		fs.deltas[id] = delta{buf: fs.deltas[id].buf}
	}
	if fs.seq-fs.cpBound >= uint64(fs.opts.CheckpointEvery) {
		return fs.writeCheckpointLocked()
	}
	return nil
}

// logPatchedLocked logs whole every block whose newest durable bytes exist
// only in patches — the checkpoint's duty before it moves the roll-forward
// start past them. Each such block is dirty in the cache or staged.
func (fs *FS) logPatchedLocked() error {
	if len(fs.patched) == 0 {
		return nil
	}
	if err := fs.flushRelocLocked(fs.patched, nil); err != nil {
		return err
	}
	if len(fs.patched) > 0 {
		id := detsort.KeysFunc(fs.patched, buffer.CompareBlockID)[0]
		return fmt.Errorf("lfs: internal error: block %v's patches have no cached copy to log", id)
	}
	return nil
}
