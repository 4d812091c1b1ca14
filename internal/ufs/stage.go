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
// queue — and a fetch of the block is served from here meanwhile. A staged
// block is as volatile as a dirty cached one.
//
// Each parked block carries a mark its owner sets when it parks the bytes:
// whether they are the block's durable image, what a crash would recover.
// LFS marks them so (a block the last commit force made durable, a logged
// copy with its summary patches laid over it); FFS never does. The mark lives
// and dies with its frame: parking new bytes sets it again, and unparking
// drops it.
//
// The table is bounded like a real staging buffer: once Park has filled it to
// its bound it reports full (TakeFull), and the owner's next operation flushes
// it. Like the file system that owns it, it has no lock.
type Stage struct {
	bound  int
	n      int
	full   bool
	files  map[buffer.FileID]map[int64]parked // file → logical block → frame
	frames frame.List
	ids    []buffer.BlockID // Blocks' result, reused
}

// parked is one staged block: its frame, and whether it holds the block's
// durable image.
type parked struct {
	frame   []byte
	durable bool
}

// NewStage returns an empty table of bound blocks of blockSize bytes.
func NewStage(bound, blockSize int) *Stage {
	return &Stage{bound: bound, files: make(map[buffer.FileID]map[int64]parked), frames: frame.NewList(blockSize)}
}

// Len returns the number of parked blocks.
func (s *Stage) Len() int { return s.n }

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
// bytes durable says are, or are not, the block's durable image. Unlike Park
// it never marks the table full.
//
//simlint:noalloc
func (s *Stage) Frame(id buffer.BlockID, durable bool) []byte {
	blocks := s.files[id.File]
	pb, ok := blocks[id.Block]
	if !ok {
		if blocks == nil {
			//simlint:alloc(one block map per file with parked blocks; an emptied file's map goes with its last block)
			blocks = make(map[int64]parked)
			s.files[id.File] = blocks
		}
		pb.frame = s.frames.Take()
		s.n++
	}
	pb.durable = durable
	//simlint:alloc(the table grows to about its bound, then the owner's flush drains it)
	blocks[id.Block] = pb
	return pb.frame
}

// Lookup returns block id's parked bytes, if it is parked. They stay the
// table's: valid until the block is parked again or unparked.
func (s *Stage) Lookup(id buffer.BlockID) ([]byte, bool) {
	pb, ok := s.files[id.File][id.Block]
	return pb.frame, ok
}

// Durable reports whether block id is parked with its durable image.
func (s *Stage) Durable(id buffer.BlockID) bool {
	return s.files[id.File][id.Block].durable
}

// Unpark drops block id from the table, if it is there, and recycles its
// frame. Nothing may still read the parked bytes: a flush calls it once the
// block is on the device, or for a version it superseded or freed.
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
	s.n--
	s.frames.Give(pb.frame)
}

// UnparkFile drops every parked block of file f: the file system is freeing
// its blocks, so no flush may write them.
func (s *Stage) UnparkFile(f buffer.FileID) {
	//simlint:ordered each frame goes back to the free list; the order frames are handed out again in changes no byte written
	for _, pb := range s.files[f] {
		s.frames.Give(pb.frame)
		s.n--
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
// unparking the listed blocks while ranging over it is fine.
func (s *Stage) Blocks(want func(buffer.FileID) bool) []buffer.BlockID {
	s.ids = s.ids[:0]
	//simlint:ordered the list is fully sorted by (file, block) below
	for f, blocks := range s.files {
		if want != nil && !want(f) {
			continue
		}
		//simlint:ordered the list is fully sorted by (file, block) below
		for b := range blocks {
			s.ids = append(s.ids, buffer.BlockID{File: f, Block: b})
		}
	}
	slices.SortFunc(s.ids, buffer.CompareBlockID)
	return s.ids
}
