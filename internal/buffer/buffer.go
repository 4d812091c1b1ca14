// Package buffer implements an LRU buffer cache of fixed-size blocks keyed by
// (file, logical block number). It is used three ways in this reproduction:
//
//   - as the operating system's buffer cache under the log-structured file
//     system and the read-optimized file system;
//   - as the user-level database page cache inside the LIBTP-style
//     transaction library (Figure 2 of the paper);
//   - as the holding area for transaction-protected dirty pages in the
//     embedded transaction manager (Figure 3): such buffers are placed on
//     "hold" so they cannot be written back or evicted before commit, which
//     is exactly the paper's implementation restriction (1) — "all dirty
//     buffers must be held in memory until commit".
package buffer

import (
	"cmp"
	"container/list"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/frame"
	"repro/internal/sim"
	"repro/internal/trace"
)

// FileID identifies a file within a file system.
type FileID uint64

// BlockID identifies one cached block.
type BlockID struct {
	File  FileID
	Block int64
}

func (id BlockID) String() string { return fmt.Sprintf("(%d,%d)", id.File, id.Block) }

// CompareBlockID orders block IDs by (file, block). Callers iterating
// BlockID-keyed maps use it (via detsort.KeysFunc) to keep flush and abort
// orders independent of Go's randomized map iteration.
func CompareBlockID(a, b BlockID) int {
	if c := cmp.Compare(a.File, b.File); c != 0 {
		return c
	}
	return cmp.Compare(a.Block, b.Block)
}

// Fetch loads the contents of a block into dst on a cache miss. dst is a
// recycled frame whose old contents are unspecified: Fetch must fill all of it.
type Fetch func(id BlockID, dst []byte) error

// WriteBack persists a dirty block when it is evicted or flushed. data is the
// pool's frame and stays the pool's: an eviction recycles it for the next miss
// as soon as WriteBack returns, so an implementation that needs the bytes
// later (LFS parks them until the next partial segment) copies them.
type WriteBack func(id BlockID, data []byte) error

// Errors returned by the pool.
var (
	ErrNoBuffers = errors.New("buffer: all buffers pinned or held")
	ErrPinned    = errors.New("buffer: operation invalid on pinned buffer")
)

// Buf is a cached block. Data is one of the pool's frames, lent to the block
// while it is resident: it is valid while the buffer is pinned, and an
// unpinned, unheld buffer may be evicted by any later Get, which takes the
// frame back — poisoned (frame.Poison), then handed to another block — and
// leaves Data nil. Callers must not retain Data after Release; the pool's
// owner may read the Data of an unpinned buffer it found through Lookup or
// Dirty only until its next Get or Invalidate.
type Buf struct {
	ID   BlockID
	Data []byte
	// Changed is the pool owner's record of how Data differs from the
	// block's durable image (Note); the pool empties it when b turns clean.
	Changed Changed
	dirty   bool
	held    bool
	// A fetch is in flight while loading is set (Data not yet valid, and
	// Get refuses the block) and, in simulated time, until ready: the
	// fetching proc's clock when its fetch returned. A fetch runs without
	// yielding, so a proc whose clock is earlier can find the block
	// resident before its read has completed; it waits until ready (Await).
	loading bool
	ready   time.Duration
	pins    int
	elem    *list.Element
	// used is the pool's use count when the buffer last moved to the front of
	// the LRU, so sorting buffers by it reproduces the LRU's order.
	used uint64
	// Links of the pool's dirty set; both nil on a clean buffer.
	dirtyPrev, dirtyNext *Buf
}

// Dirty reports whether the buffer has unwritten modifications.
func (b *Buf) Dirty() bool { return b.dirty }

// Held reports whether the buffer is on transaction hold.
func (b *Buf) Held() bool { return b.held }

// Stats counts pool activity. Hits and Misses count the lookups of Get, a
// read; WriteHits and WriteMisses those of GetForWrite, so that a hit rate
// measures reads.
type Stats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	WriteHits   int64 `json:"write_hits"`
	WriteMisses int64 `json:"write_misses"`
	Evictions   int64 `json:"evictions"`
	WriteBacks  int64 `json:"write_backs"`
}

// Pool is an LRU pool of at most capacity blocks. It has no lock of its own:
// it must be used from proc context, or from the main goroutine while no
// scheduler runs.
type Pool struct {
	capacity  int
	blockSize int
	writeback WriteBack
	table     map[BlockID]*Buf
	lru       *list.List // front = most recently used
	uses      uint64     // moves to the LRU's front so far; see Buf.used
	// dirtyHead heads the unordered, intrusive list of dirty buffers, held
	// ones included, so that a flush walks what is dirty and not the cache.
	dirtyHead *Buf
	frames    frame.List // payloads of evicted and invalidated blocks, for the next misses
	stats     Stats

	clock  *sim.Clock    // nil = no simulated time: Await never waits
	tracer *trace.Tracer // nil = tracing off
	// Counter handles are resolved at SetTracer time so the hot paths do no
	// string concatenation and no registry lookups. Nil handles (no tracer)
	// are free to Add to.
	ctrHit, ctrMiss *trace.Counter
}

// SetTracer attaches a tracer under the given metric prefix (e.g.
// "buffer.user" or "buffer.lfs" — one pool per cache keeps the counters
// separable). Get's hits and misses then count into <prefix>.{hit,miss};
// Stats counts GetForWrite's, evictions and write-backs. A nil tracer costs
// nothing.
func (p *Pool) SetTracer(tr *trace.Tracer, prefix string) {
	p.tracer = tr
	p.ctrHit = tr.Counter(prefix + ".hit")
	p.ctrMiss = tr.Counter(prefix + ".miss")
}

// SetClock gives the pool the simulated clock its fetches charge, so that a
// block being read is busy until its read completes (Await).
func (p *Pool) SetClock(c *sim.Clock) { p.clock = c }

// New creates a pool of capacity blocks of blockSize bytes. writeback is
// invoked whenever a dirty block must be persisted: by the eviction that makes
// room for a miss and by FlushAll, both in the middle of a walk over the pool,
// so it must not call back into the pool. It may be nil for pools that are
// flushed only explicitly via Dirty/MarkClean.
func New(capacity, blockSize int, writeback WriteBack) *Pool {
	if blockSize > 1<<15 { // a Changed's offsets are 16-bit
		panic(fmt.Sprintf("buffer: %d-byte blocks, over 32 KiB", blockSize))
	}
	if capacity < 1 {
		capacity = 1
	}
	return &Pool{
		capacity:  capacity,
		blockSize: blockSize,
		writeback: writeback,
		table:     make(map[BlockID]*Buf, capacity),
		lru:       list.New(),
		frames:    frame.NewList(blockSize),
	}
}

// Capacity returns the pool's block capacity.
func (p *Pool) Capacity() int { return p.capacity }

// BlockSize returns the size of each cached block.
func (p *Pool) BlockSize() int { return p.blockSize }

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() Stats {
	return p.stats
}

// Len returns the number of resident blocks.
func (p *Pool) Len() int {
	return p.lru.Len()
}

// Get returns the buffer for id, pinned. On a miss the block is loaded with
// fetch (which may be nil to get a zeroed buffer, used when a brand-new block
// is about to be fully overwritten). The caller must Release the buffer.
// A hit on a block whose fetch has not completed in simulated time waits
// for it (Await). The hit path is allocation-free; a miss builds a new
// buffer header around the frame of the block it evicted, so a full pool
// allocates no payload.
//
//simlint:noalloc
func (p *Pool) Get(id BlockID, fetch Fetch) (*Buf, error) {
	return p.get(id, fetch, false)
}

// GetForWrite is Get for a caller about to write the buffer: its lookup
// counts as a write hit or miss, not as a read's.
//
//simlint:noalloc
func (p *Pool) GetForWrite(id BlockID, fetch Fetch) (*Buf, error) {
	return p.get(id, fetch, true)
}

//simlint:noalloc
func (p *Pool) get(id BlockID, fetch Fetch, write bool) (*Buf, error) {
	if b, ok := p.table[id]; ok {
		if b.loading {
			// No process yields mid-fetch, so only the fetch callback itself
			// can be asking: it would wait for its own return.
			//simlint:alloc(cold misuse error: a fetch callback re-entered the pool for the block it is loading)
			return nil, fmt.Errorf("buffer: Get of %v from inside its own fetch", id)
		}
		if write {
			p.stats.WriteHits++
		} else {
			p.stats.Hits++
			p.ctrHit.Add(1)
		}
		b.pins++
		p.lru.MoveToFront(b.elem)
		p.usedLocked(b)
		p.Await(b)
		return b, nil
	}
	if write {
		p.stats.WriteMisses++
	} else {
		p.stats.Misses++
		p.ctrMiss.Add(1)
	}
	if err := p.makeRoomLocked(); err != nil {
		return nil, err
	}
	data := p.frames.Take()
	if fetch == nil {
		clear(data)
	}
	//simlint:alloc(cache miss: one buffer header and one LRU element per miss; the payload is recycled)
	b := &Buf{ID: id, Data: data, pins: 1, loading: fetch != nil}
	b.elem = p.lru.PushFront(b)
	p.usedLocked(b)
	p.table[id] = b

	if fetch != nil {
		err := fetch(id, b.Data)
		b.loading = false
		if p.clock != nil {
			b.ready = p.clock.Now()
		}
		if err != nil {
			b.pins = 0
			p.removeLocked(b)
			return nil, err
		}
	}
	return b, nil
}

// makeRoomLocked evicts the least recently used unpinned, unheld buffer if
// the pool is full.
func (p *Pool) makeRoomLocked() error {
	if p.lru.Len() < p.capacity {
		return nil
	}
	for e := p.lru.Back(); e != nil; e = e.Prev() {
		b := e.Value.(*Buf)
		if b.pins > 0 || b.held {
			continue
		}
		if b.dirty {
			if p.writeback == nil {
				//simlint:alloc(cold misconfiguration error: no writeback installed)
				return fmt.Errorf("buffer: dirty eviction of %v with no writeback", b.ID)
			}
			if err := p.writeback(b.ID, b.Data); err != nil {
				return err
			}
			p.stats.WriteBacks++
			p.setDirtyLocked(b, false)
		}
		p.stats.Evictions++
		p.removeLocked(b)
		return nil
	}
	return ErrNoBuffers
}

// usedLocked stamps a buffer that has just moved to the front of the LRU.
func (p *Pool) usedLocked(b *Buf) {
	p.uses++
	b.used = p.uses
}

// setDirtyLocked is the one place a buffer's dirty flag changes: it keeps the
// dirty set equal to the buffers whose flag is set, clean ones' Changed empty.
func (p *Pool) setDirtyLocked(b *Buf, dirty bool) {
	if b.dirty == dirty {
		return
	}
	b.dirty = dirty
	if dirty {
		b.dirtyNext = p.dirtyHead
		if p.dirtyHead != nil {
			p.dirtyHead.dirtyPrev = b
		}
		p.dirtyHead = b
		return
	}
	b.Changed = Changed{}
	if b.dirtyPrev != nil {
		b.dirtyPrev.dirtyNext = b.dirtyNext
	} else {
		p.dirtyHead = b.dirtyNext
	}
	if b.dirtyNext != nil {
		b.dirtyNext.dirtyPrev = b.dirtyPrev
	}
	b.dirtyPrev, b.dirtyNext = nil, nil
}

// removeLocked drops an unpinned, clean buffer from the pool and recycles its
// frame. A stale *Buf keeps no payload: use after eviction fails on a nil
// slice instead of reading the frame's next tenant.
func (p *Pool) removeLocked(b *Buf) {
	p.lru.Remove(b.elem)
	delete(p.table, b.ID)
	b.elem = nil
	p.frames.Give(b.Data)
	b.Data = nil
}

// Release unpins a buffer previously returned by Get.
//
//simlint:noalloc
func (p *Pool) Release(b *Buf) {
	if b.pins <= 0 {
		//simlint:alloc(cold misuse diagnostic on the panic path)
		panic(fmt.Sprintf("buffer: Release of unpinned buffer %v", b.ID))
	}
	b.pins--
}

// MarkDirty flags a pinned buffer as modified.
//
//simlint:noalloc
func (p *Pool) MarkDirty(b *Buf) {
	p.setDirtyLocked(b, true)
}

// MarkClean clears the dirty flag (after the owner persisted the block
// itself, e.g. as part of an LFS segment write).
//
//simlint:noalloc
func (p *Pool) MarkClean(b *Buf) {
	p.setDirtyLocked(b, false)
}

// SetHold places a buffer on (or removes it from) transaction hold. Held
// buffers are never evicted or flushed; they represent uncommitted data.
func (p *Pool) SetHold(b *Buf, hold bool) { b.held = hold }

// Dirty returns the dirty, unheld buffers, most-recently-used first. The
// returned buffers are NOT pinned: the caller must be the pool's owner (see
// Buf). The cost is that of the dirty set, not of the cache.
func (p *Pool) Dirty() []*Buf { return p.dirtyLocked(nil) }

// DirtyFile returns the dirty, unheld buffers belonging to one file, in the
// same order.
func (p *Pool) DirtyFile(f FileID) []*Buf { return p.dirtyLocked(&f) }

// dirtyLocked collects the dirty, unheld buffers — of one file, or of all
// when only is nil — in the LRU's order, front first.
func (p *Pool) dirtyLocked(only *FileID) []*Buf {
	var out []*Buf
	for b := p.dirtyHead; b != nil; b = b.dirtyNext {
		if !b.held && (only == nil || b.ID.File == *only) {
			out = append(out, b)
		}
	}
	slices.SortFunc(out, func(a, b *Buf) int { return cmp.Compare(b.used, a.used) })
	return out
}

// FlushAll writes back every dirty, unheld buffer through the writeback
// callback, least recently used first, and marks them clean.
func (p *Pool) FlushAll() error {
	dirty := p.dirtyLocked(nil)
	for i := len(dirty) - 1; i >= 0; i-- {
		b := dirty[i]
		if p.writeback == nil {
			return fmt.Errorf("buffer: FlushAll with no writeback (%v dirty)", b.ID)
		}
		if err := p.writeback(b.ID, b.Data); err != nil {
			return err
		}
		p.stats.WriteBacks++
		p.setDirtyLocked(b, false)
	}
	return nil
}

// Invalidate drops a block from the cache, discarding modifications. It is
// how transaction abort throws away uncommitted pages. Pinned buffers cannot
// be invalidated.
func (p *Pool) Invalidate(id BlockID) error {
	b, ok := p.table[id]
	if !ok {
		return nil
	}
	if b.pins > 0 {
		return ErrPinned
	}
	p.setDirtyLocked(b, false)
	b.held = false
	p.removeLocked(b)
	return nil
}

// InvalidateFile drops every unpinned block of a file.
func (p *Pool) InvalidateFile(f FileID) error {
	var next *list.Element
	for e := p.lru.Front(); e != nil; e = next {
		next = e.Next()
		b := e.Value.(*Buf)
		if b.ID.File != f {
			continue
		}
		if b.pins > 0 {
			return ErrPinned
		}
		p.setDirtyLocked(b, false)
		b.held = false
		p.removeLocked(b)
	}
	return nil
}

// Lookup returns the resident buffer for id without pinning it, or nil. A
// proc that reads a block's bytes this way instead of through Get Awaits the
// buffer first; the pool's owner writing a dirty block back need not.
func (p *Pool) Lookup(id BlockID) *Buf {
	return p.table[id]
}

// Await is the busy-buffer rule: the running proc sleeps until b's fetch
// has returned in simulated time, as a UNIX process sleeps on a buffer whose
// read is in flight. A proc that fetched b itself, and any caller outside
// proc context, is already past that time and waits for nothing.
//
//simlint:noalloc
func (p *Pool) Await(b *Buf) { p.WaitUntil(b.ready) }

// WaitUntil advances the running proc to t if it is earlier: a wait for a
// read another proc has in flight. The wait is charged to trace.AttrQueue,
// time behind another client's disk request.
//
//simlint:noalloc
func (p *Pool) WaitUntil(t time.Duration) {
	if p.clock == nil {
		return
	}
	if w := t - p.clock.Now(); w > 0 {
		p.clock.Advance(w)
		p.tracer.Attribute(trace.AttrQueue, w)
	}
}
