package core

import (
	"fmt"

	"repro/internal/buffer"
)

// undoRange is the in-memory before-image of one byte range a transaction
// wrote. Before-images are the single rollback mechanism at both lock
// granularities. Pre-commit releases locks before the flush, so a page a
// transaction writes may carry other transactions' pre-committed bytes that
// the log does not hold yet: neither abort nor the flush may fall back on the
// page's on-disk image.
type undoRange struct {
	id     buffer.BlockID
	offset int    // byte offset within the page
	before []byte // the head of one of the manager's frames (see dropUndoLocked)
}

// dropUndoLocked gives a finished transaction's before-image frames back: it
// is durable or rolled back, and nothing reads its undo again (a batch flush
// backs out running writers only).
func (m *Manager) dropUndoLocked(t *Txn) {
	for _, u := range t.undo {
		m.frames.Give(u.before[:cap(u.before)])
	}
	t.undo = nil
}

// heldPage is the transaction state of one buffer on hold (the per-inode
// transaction buffer list of §4.1, kept per page).
type heldPage struct {
	// writers are the running transactions with before-images on the page:
	// at most one under Page locking, one per slot under SubPage.
	writers []*Txn
	// pending counts pre-committed transactions whose bytes on the page
	// await the batch flush.
	pending int
	// baseDirty reports whether the page with the writers' bytes backed out
	// differs from its image in the log. It decides whether the buffer is
	// clean once the last writer has aborted.
	baseDirty bool
}

func (hp *heldPage) dropWriter(t *Txn) {
	for i, w := range hp.writers {
		if w == t {
			hp.writers = append(hp.writers[:i], hp.writers[i+1:]...)
			return
		}
	}
}

// writeHeldLocked performs one page's share of a transactional write: record
// the before-image, write the bytes into the buffer cache, and put the buffer
// on hold with the transaction among its writers. The three happen as one
// step, with no scheduling point between them, so a batch flush sees either
// none of the write or all of it with its before-image — never new bytes it
// cannot back out. The caller holds the covering write locks, so the bytes
// cannot change under us. With a snapshot pinned, every write also leaves the
// before-image of the bytes it changes in the version store, covered or not.
func (m *Manager) writeHeldLocked(t *Txn, f *File, page int64, data []byte, off int) (int, error) {
	id := buffer.BlockID{File: f.id, Block: page}
	pool := m.fs.Pool()
	pos := page*int64(m.fs.BlockSize()) + int64(off)
	b := pool.Lookup(id)
	wasDirty := b != nil && b.Dirty()
	var old []byte // the bytes the write replaces
	if t.covered(id, off, len(data)) {
		old = b.Data[off : off+len(data)] // the transaction holds the page, so it is resident
	} else {
		before := m.frames.Take()[:len(data)] // a page's share of a write never exceeds the page
		if b != nil {
			copy(before, b.Data[off:])
		} else if n, err := f.lf.ReadAt(before, pos); err != nil {
			m.frames.Give(before[:cap(before)])
			return 0, err
		} else {
			clear(before[n:])
		}
		// (A page that is not resident is on no transaction's hold, so the
		// file system's image of it — zeros past the end of file — is the
		// before-image.)
		t.undo = append(t.undo, undoRange{id: id, offset: off, before: before})
		old = before
	}
	if m.vers.Active() {
		if lo, hi := buffer.Hull(old, data); lo < hi {
			m.recordVersionLocked(t.id, id, off+lo, old[lo:hi])
		}
	}
	n, err := f.lf.WriteAt(data, pos)
	if err != nil {
		return n, err
	}
	if !t.pages[id] {
		t.pages[id] = true
		hp := m.held[id]
		if hp == nil {
			hp = &heldPage{baseDirty: wasDirty}
			m.held[id] = hp
			pool.SetHold(pool.Lookup(id), true)
		}
		hp.writers = append(hp.writers, t)
	}
	return n, nil
}

// covered reports whether an earlier before-image of the transaction already
// spans bytes [off, off+n) of the page: only the first write of a byte needs
// capturing, and a transaction that rewrites one page many times (a B-tree
// leaf under a bulk insert) keeps one image of it.
func (t *Txn) covered(id buffer.BlockID, off, n int) bool {
	for _, u := range t.undo {
		if u.id == id && u.offset <= off && off+n <= u.offset+len(u.before) {
			return true
		}
	}
	return false
}

// undoInto backs the transaction's writes to page id out of img, newest
// first, so overlapping ranges unwind to the oldest before-image.
func (t *Txn) undoInto(id buffer.BlockID, img []byte) {
	for i := len(t.undo) - 1; i >= 0; i-- {
		if u := t.undo[i]; u.id == id {
			copy(img[u.offset:], u.before)
		}
	}
}

// applyUndoLocked rolls a transaction back in place, in the held (hence
// resident) pages.
func (m *Manager) applyUndoLocked(t *Txn) error {
	pool := m.fs.Pool()
	for i := len(t.undo) - 1; i >= 0; i-- {
		u := t.undo[i]
		b := pool.Lookup(u.id)
		if b == nil {
			// Held pages are pinned in the cache; a missing one is an
			// invariant violation, not a recoverable condition.
			return fmt.Errorf("core: undo target %v not resident", u.id)
		}
		copy(b.Data[u.offset:], u.before)
	}
	return nil
}

// committedImageLocked returns the image of a batch page that may go to the
// log: nil when the resident buffer is it, else a scratch copy, in one of the
// manager's frames, with every running writer's bytes backed out (the writers
// hold disjoint slots, so the order among them does not matter). The caller
// gives the frame back once the flush has returned.
func (m *Manager) committedImageLocked(id buffer.BlockID) []byte {
	hp := m.held[id]
	if len(hp.writers) == 0 {
		return nil
	}
	img := m.frames.Take()
	copy(img, m.fs.Pool().Lookup(id).Data)
	for _, w := range hp.writers {
		w.undoInto(id, img)
	}
	return img
}

// unholdLocked takes a page nobody writes or awaits any more off hold.
func (m *Manager) unholdLocked(id buffer.BlockID) {
	delete(m.held, id)
	if b := m.fs.Pool().Lookup(id); b != nil {
		m.fs.Pool().SetHold(b, false)
	}
}
