package ufs

import (
	"slices"

	"repro/internal/buffer"
	"repro/internal/frame"
)

// Stage is the write-behind table both file systems park evicted dirty blocks
// in. A dirty block the cache evicts is not written where it stands: its
// bytes wait here, in a frame of the table's own, until the next flush carries
// them — LFS's next partial segment, FFS's next C-SCAN sweep of the disk
// queue — and a fetch of the block is served from here meanwhile. A parked
// block is as volatile as a dirty cached one.
//
// A block has one of two states here. Parked, it waits for a flush: Lookup,
// Blocks and Durable see it, and every flush, force, checkpoint and cleaner
// path writes it. Kept, it has been written: a flush that wrote a parked
// block no cached buffer holds calls Keep, and the frame then caches the
// bytes at the block's address as a written-back 4.4BSD buffer does until its
// memory is reused. Only a fetch reads a kept frame (ReadKept); no writer sees
// it. It goes when its block is parked again or unparked — the owner unparks
// a block it writes from a buffer, fetches into its cache, truncates or frees
// — and when a new block needs a frame while parked and kept blocks fill the
// bound: the oldest kept frame is reclaimed first.
//
// Each parked block carries a mark its owner sets when it parks the bytes:
// whether they are the block's durable image, what a crash would recover.
// LFS marks them so (a block the last commit force made durable, a logged
// copy with its summary patches laid over it); FFS never does. The mark lives
// and dies with the parking: parking new bytes sets it again, and keeping or
// unparking the block drops it.
//
// The table is bounded like a real staging buffer: once Park has filled it to
// its bound with parked blocks it reports full (TakeFull), and the owner's
// next operation flushes it. Like the file system that owns it, it has no
// lock.
type Stage struct {
	bound  int
	n      int // parked blocks
	full   bool
	files  map[buffer.FileID]map[int64]parked // file → logical block → frame
	frames frame.List
	kept   keepOrder
	ids    []buffer.BlockID // Blocks' result, reused
	stats  StageStats
}

// StageStats counts what the stage served and what it threw away unread.
type StageStats struct {
	ParkedHits int64 `json:"parked_hits"` // fetches a parked block served
	KeptHits   int64 `json:"kept_hits"`   // fetches a kept block served
	// KeptReclaimed counts the kept frames reclaimed for other blocks before
	// any fetch read them.
	KeptReclaimed int64 `json:"kept_reclaimed_unread"`
}

// parked is one staged block: its frame, whether it holds the block's durable
// image (parked only), and, kept, its slot in the keep order and whether a
// fetch has read it.
type parked struct {
	frame   []byte
	durable bool
	kept    bool
	read    bool
	slot    int32
}

// NewStage returns an empty table of bound blocks of blockSize bytes.
func NewStage(bound, blockSize int) *Stage {
	return &Stage{
		bound:  bound,
		files:  make(map[buffer.FileID]map[int64]parked),
		frames: frame.NewList(blockSize),
		kept:   newKeepOrder(bound),
	}
}

// Len returns the number of parked blocks.
func (s *Stage) Len() int { return s.n }

// Stats returns the table's counters.
func (s *Stage) Stats() StageStats { return s.stats }

// Park stages an evicted dirty block: data is copied into id's frame,
// replacing an older staged version, and durable marks whether it is the
// block's durable image. A Park that leaves bound or more blocks parked marks
// the table full.
//
//simlint:noalloc
func (s *Stage) Park(id buffer.BlockID, data []byte, durable bool) {
	copy(s.Frame(id, durable), data)
	if s.n >= s.bound {
		s.full = true
	}
}

// Frame returns the frame block id is parked in, parking it first if it is
// not, for the caller to fill — a relocation or a read in progress — with
// bytes durable says are, or are not, the block's durable image. A kept block
// is parked again in its own frame; a new one takes the oldest kept frame
// when parked and kept blocks fill the bound. Unlike Park it never marks the
// table full.
//
//simlint:noalloc
func (s *Stage) Frame(id buffer.BlockID, durable bool) []byte {
	blocks := s.files[id.File]
	pb, ok := blocks[id.Block]
	switch {
	case !ok:
		if s.n+s.kept.n >= s.bound && s.kept.n > 0 {
			s.reclaim()
			blocks = s.files[id.File] // the reclaimed block may have been its file's last
		}
		if blocks == nil {
			//simlint:alloc(one block map per file with staged blocks; an emptied file's map goes with its last block)
			blocks = make(map[int64]parked)
			s.files[id.File] = blocks
		}
		pb.frame = s.frames.Take()
		s.n++
	case pb.kept:
		s.kept.remove(pb.slot)
		pb.kept, pb.read = false, false
		s.n++
	}
	pb.durable = durable
	//simlint:alloc(the table grows to about its bound, then the owner's flush drains it)
	blocks[id.Block] = pb
	return pb.frame
}

// Keep turns parked block id, just written, into a kept one: its frame stays
// readable by ReadKept, and no longer by Lookup or Blocks. If parked and kept
// blocks then exceed the bound, the oldest kept frames are reclaimed. A block
// not parked is left alone.
//
//simlint:noalloc
func (s *Stage) Keep(id buffer.BlockID) {
	blocks := s.files[id.File]
	pb, ok := blocks[id.Block]
	if !ok || pb.kept {
		return
	}
	pb.kept, pb.durable, pb.read = true, false, false
	pb.slot = s.kept.push(id)
	blocks[id.Block] = pb
	s.n--
	for s.n+s.kept.n > s.bound && s.kept.n > 0 {
		s.reclaim()
	}
}

// reclaim drops the oldest kept block, counting it if no fetch read it.
func (s *Stage) reclaim() {
	id := s.kept.ids[s.kept.head]
	if !s.files[id.File][id.Block].read {
		s.stats.KeptReclaimed++
	}
	s.Unpark(id)
}

// Lookup returns block id's parked bytes, if it is parked. They stay the
// table's: valid until the block is parked again, kept or unparked.
func (s *Stage) Lookup(id buffer.BlockID) ([]byte, bool) {
	pb, ok := s.files[id.File][id.Block]
	if !ok || pb.kept {
		return nil, false
	}
	return pb.frame, true
}

// Durable reports whether block id is parked with its durable image.
func (s *Stage) Durable(id buffer.BlockID) bool {
	return s.files[id.File][id.Block].durable
}

// ReadParked copies block id's parked bytes into dst, if it is parked, and
// counts the hit.
func (s *Stage) ReadParked(id buffer.BlockID, dst []byte) bool {
	data, ok := s.Lookup(id)
	if ok {
		copy(dst, data)
		s.stats.ParkedHits++
	}
	return ok
}

// ReadKept copies block id's kept bytes into dst, if it is kept, and counts
// the hit. The caller vouches that the bytes at the block's address are still
// the ones kept: nothing has written the block since Keep but through the
// stage.
func (s *Stage) ReadKept(id buffer.BlockID, dst []byte) bool {
	blocks := s.files[id.File]
	pb, ok := blocks[id.Block]
	if !ok || !pb.kept {
		return false
	}
	copy(dst, pb.frame)
	s.stats.KeptHits++
	if !pb.read {
		pb.read = true
		blocks[id.Block] = pb
	}
	return true
}

// Unpark drops block id from the table, parked or kept, if it is there, and
// recycles its frame. Nothing may still read the staged bytes: a flush calls
// it once the block is on the device, or for a version it superseded or
// freed; a fetch, for a kept block the cache now holds.
func (s *Stage) Unpark(id buffer.BlockID) {
	blocks := s.files[id.File]
	pb, ok := blocks[id.Block]
	if !ok {
		return
	}
	delete(blocks, id.Block)
	if len(blocks) == 0 {
		delete(s.files, id.File)
	}
	s.drop(pb)
}

// drop takes a removed block out of its count and recycles its frame.
func (s *Stage) drop(pb parked) {
	if pb.kept {
		s.kept.remove(pb.slot)
	} else {
		s.n--
	}
	s.frames.Give(pb.frame)
}

// UnparkFile drops every staged block of file f, parked or kept: the file
// system is freeing its blocks, so no flush may write them and no fetch read
// them.
func (s *Stage) UnparkFile(f buffer.FileID) {
	//simlint:ordered each frame goes back to the free list and each slot to the keep order's free stack; the order they are handed out again in changes no byte written
	for _, pb := range s.files[f] {
		s.drop(pb)
	}
	delete(s.files, f)
}

// TakeFull reports whether a Park has filled the table since the last call,
// and clears the flag.
func (s *Stage) TakeFull() bool {
	full := s.full
	s.full = false
	return full
}

// Blocks lists the parked blocks of the files want accepts — of every file
// when want is nil — in (file, block) order. It touches only those files'
// blocks. The slice is the table's and is overwritten by the next call;
// keeping or unparking the listed blocks while ranging over it is fine.
func (s *Stage) Blocks(want func(buffer.FileID) bool) []buffer.BlockID {
	s.ids = s.ids[:0]
	//simlint:ordered the list is fully sorted by (file, block) below
	for f, blocks := range s.files {
		if want != nil && !want(f) {
			continue
		}
		//simlint:ordered the list is fully sorted by (file, block) below
		for b, pb := range blocks {
			if !pb.kept {
				s.ids = append(s.ids, buffer.BlockID{File: f, Block: b})
			}
		}
	}
	slices.SortFunc(s.ids, buffer.CompareBlockID)
	return s.ids
}

// keepOrder lists the kept blocks oldest first: a doubly linked list over a
// fixed array of slots, one per block the stage can hold, so that keeping,
// dropping from the middle and reclaiming the oldest allocate nothing.
type keepOrder struct {
	ids        []buffer.BlockID
	prev, next []int32
	head, tail int32 // -1 when empty
	free       int32 // a stack of unused slots, linked through next
	n          int
}

func newKeepOrder(slots int) keepOrder {
	k := keepOrder{
		ids:  make([]buffer.BlockID, slots),
		prev: make([]int32, slots),
		next: make([]int32, slots),
		head: -1,
		tail: -1,
		free: -1,
	}
	for i := slots - 1; i >= 0; i-- {
		k.next[i] = k.free
		k.free = int32(i)
	}
	return k
}

// push appends id as the newest kept block and returns its slot. The stage
// keeps at most its bound, so a slot is always free.
func (k *keepOrder) push(id buffer.BlockID) int32 {
	i := k.free
	k.free = k.next[i]
	k.ids[i], k.prev[i], k.next[i] = id, k.tail, -1
	if k.tail >= 0 {
		k.next[k.tail] = i
	} else {
		k.head = i
	}
	k.tail = i
	k.n++
	return i
}

// remove unlinks slot i and frees it.
func (k *keepOrder) remove(i int32) {
	if p := k.prev[i]; p >= 0 {
		k.next[p] = k.next[i]
	} else {
		k.head = k.next[i]
	}
	if n := k.next[i]; n >= 0 {
		k.prev[n] = k.prev[i]
	} else {
		k.tail = k.prev[i]
	}
	k.next[i] = k.free
	k.free = i
	k.n--
}
