package core

import (
	"repro/internal/lock"
	"repro/internal/vfs"
)

// Lock granularity. The paper's implementation locks whole pages
// (implementation restriction 2: "locking is strictly two-phase and is
// performed at the granularity of a page") and notes that the simulation
// study "indicated that locking at granularities smaller than a page is
// required for environments that are [contentious]", with enhancements
// described in [16]. SubPage implements that enhancement: each page is
// divided into lock slots, so writers to different records of one page no
// longer conflict. Abort and the commit flush need nothing extra for it:
// both work from byte-range before-images (undo.go) at either granularity.
type Granularity int

const (
	// Page locks whole pages (the paper's measured configuration).
	Page Granularity = iota
	// SubPage locks fixed sub-page slots (the [16] enhancement).
	SubPage
)

// subPageSlots divides each page into this many lock slots.
const subPageSlots = 8

// slotObjects returns the lock objects covering bytes [off, off+n) of a
// page. In Page mode there is one object per page; in SubPage mode the
// page's slot indices are folded into the Block field (page*slots + slot),
// which cannot collide with page-mode keys because a Manager uses a single
// granularity for its lifetime.
func (m *Manager) slotObjects(file vfs.FileID, page int64, lo, hi int) []lock.Object {
	if m.opts.Granularity == Page {
		return []lock.Object{{File: uint64(file), Block: page}}
	}
	bs := m.fs.BlockSize()
	slotBytes := bs / subPageSlots
	firstSlot := lo / slotBytes
	lastSlot := (hi - 1) / slotBytes
	out := make([]lock.Object, 0, lastSlot-firstSlot+1)
	for s := firstSlot; s <= lastSlot; s++ {
		out = append(out, lock.Object{File: uint64(file), Block: page*subPageSlots + int64(s)})
	}
	return out
}

// lockSpan acquires locks covering bytes [off, off+n) of the file for the
// process's transaction, at the manager's configured granularity.
func (p *Process) lockSpan(f *File, off int64, n int, mode lock.Mode) error {
	m := p.m
	bs := int64(m.fs.BlockSize())
	first := off / bs
	last := off
	if n > 0 {
		last = off + int64(n) - 1
	}
	lastPage := last / bs
	for pg := first; pg <= lastPage; pg++ {
		lo := int64(0)
		if pg == first {
			lo = off % bs
		}
		hi := bs
		if pg == lastPage {
			hi = last%bs + 1
		}
		for _, obj := range m.slotObjects(f.id, pg, int(lo), int(hi)) {
			if err := p.lockObject(obj, mode); err != nil {
				return err
			}
		}
	}
	return nil
}
