package buffer

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func TestGetMissZeroFill(t *testing.T) {
	p := New(4, 64, nil)
	b, err := p.Get(BlockID{1, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(b)
	for _, v := range b.Data {
		if v != 0 {
			t.Fatal("nil fetch should produce zeroed buffer")
		}
	}
	if len(b.Data) != 64 {
		t.Fatalf("block size %d, want 64", len(b.Data))
	}
}

func TestGetHitReturnsSameBuffer(t *testing.T) {
	p := New(4, 64, nil)
	b1, err := p.Get(BlockID{1, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b1.Data[0] = 42
	p.Release(b1)
	b2, err := p.Get(BlockID{1, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(b2)
	if b2.Data[0] != 42 {
		t.Fatal("cache hit should see previous contents")
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 miss", st)
	}
}

// TestWriteLookupsCountApart: GetForWrite's lookups count as write hits and
// misses, in Stats only, so that the read hit rate — Stats and the tracer's
// <prefix>.{hit,miss} pair — measures reads.
func TestWriteLookupsCountApart(t *testing.T) {
	tr := trace.New(nil)
	p := New(4, 64, nil)
	p.SetTracer(tr, "buffer.t")
	get := func(f func(BlockID, Fetch) (*Buf, error), blk int64) {
		b, err := f(BlockID{1, blk}, nil)
		if err != nil {
			t.Fatal(err)
		}
		p.Release(b)
	}
	get(p.GetForWrite, 1) // write miss
	get(p.Get, 1)         // read hit
	get(p.GetForWrite, 1) // write hit
	get(p.Get, 2)         // read miss
	get(p.GetForWrite, 2) // write hit
	if st := p.Stats(); st.Hits != 1 || st.Misses != 1 || st.WriteHits != 2 || st.WriteMisses != 1 {
		t.Fatalf("stats = %+v, want 1 read hit, 1 read miss, 2 write hits, 1 write miss", st)
	}
	c := tr.Metrics().Snapshot().Counters
	if c["buffer.t.hit"] != 1 || c["buffer.t.miss"] != 1 {
		t.Fatalf("registry hit %d miss %d, want the reads' 1 and 1", c["buffer.t.hit"], c["buffer.t.miss"])
	}
}

func TestFetchCalledOnMissOnly(t *testing.T) {
	calls := 0
	fetch := func(id BlockID, dst []byte) error {
		calls++
		dst[0] = byte(id.Block)
		return nil
	}
	p := New(4, 64, nil)
	b, _ := p.Get(BlockID{1, 7}, fetch)
	if b.Data[0] != 7 {
		t.Fatal("fetch did not populate buffer")
	}
	p.Release(b)
	b, _ = p.Get(BlockID{1, 7}, fetch)
	p.Release(b)
	if calls != 1 {
		t.Fatalf("fetch called %d times, want 1", calls)
	}
}

func TestFetchErrorPropagates(t *testing.T) {
	wantErr := errors.New("boom")
	p := New(4, 64, nil)
	_, err := p.Get(BlockID{1, 0}, func(BlockID, []byte) error { return wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("got %v, want %v", err, wantErr)
	}
	// The failed block must not be cached.
	if p.Len() != 0 {
		t.Fatal("failed fetch left a resident buffer")
	}
}

// TestGetInsideOwnFetchFails: the block a fetch is loading is not there yet.
// Nothing but the fetch callback can ask for it meanwhile (no process yields
// mid-fetch), and that request is an error, not a wait for its own return.
func TestGetInsideOwnFetchFails(t *testing.T) {
	p := New(4, 64, nil)
	id := BlockID{1, 0}
	var inner error
	_, err := p.Get(id, func(_ BlockID, dst []byte) error {
		_, inner = p.Get(id, nil)
		return inner
	})
	if inner == nil || !errors.Is(err, inner) {
		t.Fatalf("inner Get: %v, outer Get: %v; want the inner one refused and the fetch failed with it", inner, err)
	}
	if p.Len() != 0 {
		t.Fatal("failed fetch left a resident buffer")
	}
}

func TestLRUEviction(t *testing.T) {
	var evicted []BlockID
	wb := func(id BlockID, data []byte) error {
		evicted = append(evicted, id)
		return nil
	}
	p := New(2, 8, wb)
	for i := int64(0); i < 3; i++ {
		b, err := p.Get(BlockID{1, i}, nil)
		if err != nil {
			t.Fatal(err)
		}
		p.Release(b)
	}
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2", p.Len())
	}
	// Block 0 was least recently used and clean, so no writeback happened.
	if len(evicted) != 0 {
		t.Fatalf("clean eviction should not write back, got %v", evicted)
	}
	if p.Lookup(BlockID{1, 0}) != nil {
		t.Fatal("block 0 should have been evicted")
	}
	if st := p.Stats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	var wrote []BlockID
	wb := func(id BlockID, data []byte) error {
		wrote = append(wrote, id)
		if data[0] != 9 {
			return fmt.Errorf("writeback saw wrong data %d", data[0])
		}
		return nil
	}
	p := New(1, 8, wb)
	b, _ := p.Get(BlockID{1, 0}, nil)
	b.Data[0] = 9
	p.MarkDirty(b)
	p.Release(b)
	b2, err := p.Get(BlockID{1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(b2)
	if len(wrote) != 1 || wrote[0] != (BlockID{1, 0}) {
		t.Fatalf("writebacks = %v, want [(1,0)]", wrote)
	}
}

func TestPinnedBufferNotEvicted(t *testing.T) {
	p := New(1, 8, nil)
	b, _ := p.Get(BlockID{1, 0}, nil)
	// b stays pinned; the pool is full of pinned buffers.
	_, err := p.Get(BlockID{1, 1}, nil)
	if !errors.Is(err, ErrNoBuffers) {
		t.Fatalf("got %v, want ErrNoBuffers", err)
	}
	p.Release(b)
	b2, err := p.Get(BlockID{1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(b2)
}

func TestHeldBufferNotEvictedOrFlushed(t *testing.T) {
	wbCalled := false
	p := New(1, 8, func(BlockID, []byte) error { wbCalled = true; return nil })
	b, _ := p.Get(BlockID{1, 0}, nil)
	p.MarkDirty(b)
	p.SetHold(b, true)
	p.Release(b)
	if _, err := p.Get(BlockID{1, 1}, nil); !errors.Is(err, ErrNoBuffers) {
		t.Fatalf("held buffer should block eviction, got %v", err)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if wbCalled {
		t.Fatal("held buffer must not be flushed")
	}
	// After release from hold it can be flushed and evicted.
	p.SetHold(b, false)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if !wbCalled {
		t.Fatal("unheld dirty buffer should flush")
	}
}

func TestDirtyListsAndMarkClean(t *testing.T) {
	p := New(8, 8, nil)
	ids := []BlockID{{1, 0}, {2, 0}, {1, 3}}
	for _, id := range ids {
		b, _ := p.Get(id, nil)
		p.MarkDirty(b)
		p.Release(b)
	}
	if got := len(p.Dirty()); got != 3 {
		t.Fatalf("Dirty() len = %d, want 3", got)
	}
	if got := len(p.DirtyFile(1)); got != 2 {
		t.Fatalf("DirtyFile(1) len = %d, want 2", got)
	}
	for _, b := range p.DirtyFile(1) {
		p.MarkClean(b)
	}
	if got := len(p.Dirty()); got != 1 {
		t.Fatalf("after cleaning file 1, Dirty() len = %d, want 1", got)
	}
}

func TestInvalidateDiscardsDirtyData(t *testing.T) {
	fetches := 0
	fetch := func(id BlockID, dst []byte) error { fetches++; dst[0] = 5; return nil }
	p := New(4, 8, nil)
	b, _ := p.Get(BlockID{1, 0}, fetch)
	b.Data[0] = 99
	p.MarkDirty(b)
	p.Release(b)
	if err := p.Invalidate(BlockID{1, 0}); err != nil {
		t.Fatal(err)
	}
	b, _ = p.Get(BlockID{1, 0}, fetch)
	defer p.Release(b)
	if b.Data[0] != 5 {
		t.Fatal("invalidate should discard modifications; re-fetch should restore")
	}
	if fetches != 2 {
		t.Fatalf("fetches = %d, want 2", fetches)
	}
}

func TestInvalidatePinnedFails(t *testing.T) {
	p := New(4, 8, nil)
	b, _ := p.Get(BlockID{1, 0}, nil)
	defer p.Release(b)
	if err := p.Invalidate(BlockID{1, 0}); !errors.Is(err, ErrPinned) {
		t.Fatalf("got %v, want ErrPinned", err)
	}
}

func TestInvalidateFile(t *testing.T) {
	p := New(8, 8, nil)
	for i := int64(0); i < 3; i++ {
		b, _ := p.Get(BlockID{7, i}, nil)
		p.MarkDirty(b)
		p.Release(b)
	}
	b, _ := p.Get(BlockID{8, 0}, nil)
	p.Release(b)
	if err := p.InvalidateFile(7); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (only file 8 remains)", p.Len())
	}
	if p.Lookup(BlockID{8, 0}) == nil {
		t.Fatal("file 8 should survive InvalidateFile(7)")
	}
}

func TestReleaseUnpinnedPanics(t *testing.T) {
	p := New(4, 8, nil)
	b, _ := p.Get(BlockID{1, 0}, nil)
	p.Release(b)
	defer func() {
		if recover() == nil {
			t.Fatal("double release should panic")
		}
	}()
	p.Release(b)
}

func TestFlushAllWritesEverythingDirty(t *testing.T) {
	wrote := map[BlockID]bool{}
	p := New(8, 8, func(id BlockID, data []byte) error { wrote[id] = true; return nil })
	for i := int64(0); i < 5; i++ {
		b, _ := p.Get(BlockID{1, i}, nil)
		if i%2 == 0 {
			p.MarkDirty(b)
		}
		p.Release(b)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if len(wrote) != 3 {
		t.Fatalf("flushed %d blocks, want 3", len(wrote))
	}
	if len(p.Dirty()) != 0 {
		t.Fatal("no buffers should remain dirty after FlushAll")
	}
}

func TestCapacityFloor(t *testing.T) {
	p := New(0, 8, nil)
	if p.Capacity() != 1 {
		t.Fatalf("capacity floor should be 1, got %d", p.Capacity())
	}
}

// Property: after arbitrary get/dirty/release traffic within capacity, every
// block re-read through the pool returns the last bytes written.
func TestPoolConsistencyProperty(t *testing.T) {
	backing := map[BlockID][]byte{}
	fetch := func(id BlockID, dst []byte) error {
		if b, ok := backing[id]; ok {
			copy(dst, b)
		} else {
			for i := range dst {
				dst[i] = 0
			}
		}
		return nil
	}
	wb := func(id BlockID, data []byte) error {
		cp := make([]byte, len(data))
		copy(cp, data)
		backing[id] = cp
		return nil
	}
	p := New(4, 8, wb)
	shadow := map[BlockID]byte{}
	f := func(ops []struct {
		Block uint8
		Val   byte
	}) bool {
		for _, op := range ops {
			id := BlockID{1, int64(op.Block % 16)}
			b, err := p.Get(id, fetch)
			if err != nil {
				return false
			}
			b.Data[0] = op.Val
			p.MarkDirty(b)
			p.Release(b)
			shadow[id] = op.Val
		}
		for id, want := range shadow {
			b, err := p.Get(id, fetch)
			if err != nil {
				return false
			}
			got := b.Data[0]
			p.Release(b)
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
