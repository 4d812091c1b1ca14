package btree

import (
	"repro/internal/frame"
	"repro/internal/pagestore"
)

// Scratch is a relation's long-lived store of what its Tree handles borrow for
// one operation at a time: page frames, and node shells — the in-memory nodes
// every read decodes a page into, whose key, value and child tables keep their
// capacity from one decode to the next. A handle takes from its Scratch and
// gives back at its next operation or Close, so a Scratch that outlives its
// handles — TPC-B opens one per balance update — hands the same few frames and
// shells round. Handles interleaved on one Scratch never share what they hold:
// each gives back only what it took.
//
// The zero Scratch is ready to use. A Scratch has no lock, like the page
// stores its handles read through: it must be used from proc context, or from
// the main goroutine while no scheduler runs.
type Scratch struct {
	frames frame.List
	shells []*node
}

// OpenWith loads an existing tree on a handle that borrows from s, the
// relation's Scratch: once s is warm, the handle is the one allocation.
func OpenWith(st pagestore.Store, s *Scratch) (*Tree, error) { return open(st, s) }

// frame takes a page frame of size bytes.
//
//simlint:noalloc
func (s *Scratch) frame(size int) []byte {
	if s.frames.Size() != size {
		s.frames = frame.NewList(size) // first use: a relation has one page size
	}
	return s.frames.Take()
}

// shell takes a node shell. Its fields are whatever its last decode left.
//
//simlint:noalloc
func (s *Scratch) shell() *node {
	if n := len(s.shells); n > 0 {
		sh := s.shells[n-1]
		s.shells[n-1] = nil
		s.shells = s.shells[:n-1]
		return sh
	}
	//simlint:alloc(the shell list grows to its handles' high-water mark of nodes in use, then recycles)
	return new(node)
}

// give takes back what one loan held.
//
//simlint:noalloc
func (s *Scratch) give(l loan) {
	s.frames.Give(l.page)
	if l.n != nil {
		//simlint:alloc(the free slice grows to the high-water mark once)
		s.shells = append(s.shells, l.n)
	}
}
